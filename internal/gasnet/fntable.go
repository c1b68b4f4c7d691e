package gasnet

import (
	"encoding/binary"
	"sync"
)

// A closure cannot be serialized, so on the UDP conduit a message that
// carries one (a user RPC body, a remote completion) travels by handle:
// Send parks the closure in the domain's fnTable and stages an ordinary
// wire message that names the slot. The message then rides the sequenced
// stream like any other — retransmitted, deduplicated, acked, and in the
// sender's order — and the receiver takes the closure out when it expands
// the frame (host.takeFn). The handle is a name only within one address
// space, as a function's name is within one binary in UPC++: a Multiproc
// world parks only its self-sends, and refuses closures to other ranks
// before injection.
//
// On the wire a closure message sets fnFlag in its handler byte (ids are
// below MaxHandlers) and carries the 8-byte handle after its payload;
// every other message carries neither, and pays nothing for closures.

// fnFlag marks a wire message whose handle names a parked closure.
const fnFlag = 0x80

// fnRefLen is the size of the handle a closure message carries.
const fnRefLen = 8

// fnTable holds the closures of UDP messages in flight. A handle is a slot
// index plus the slot's generation, which moves whenever the slot is
// freed, so a stale or repeated handle names nothing. The free list only
// grows: a warm table parks and takes without allocating. Senders park
// and receivers take on different goroutines, and a socket gives the race
// detector no happens-before edge between them, so mu guards everything.
type fnTable struct {
	mu    sync.Mutex
	slots []fnSlot
	free  []uint32
}

// fnSlot is one parked closure and the only pair that may take it: the
// sending rank, which the receiver's sequenced stream vouches for, and the
// rank it was sent to. down is the sender's death generation of the target
// when the closure was parked (DownGen), so a death sweep frees only what
// was sent to a buried incarnation. A free slot has a nil fn.
type fnSlot struct {
	fn       func(*Endpoint)
	gen      uint32
	down     uint32
	from, to int32
}

// park stores fn, sent by rank from to rank to while to's death generation
// was down, and returns its handle.
func (t *fnTable) park(fn func(*Endpoint), from, to int, down uint32) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.free) == 0 {
		t.free = append(t.free, uint32(len(t.slots)))
		t.slots = append(t.slots, fnSlot{})
	}
	i := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	s := &t.slots[i]
	s.fn, s.down, s.from, s.to = fn, down, int32(from), int32(to)
	return uint64(s.gen)<<32 | uint64(i)
}

// take removes and returns the closure ref names if it is live and was
// parked by from for to; anything else returns nil and changes nothing.
func (t *fnTable) take(ref uint64, from, to int32) (fn func(*Endpoint)) {
	i := uint32(ref)
	t.mu.Lock()
	defer t.mu.Unlock()
	if i < uint32(len(t.slots)) {
		if s := &t.slots[i]; s.fn != nil && s.gen == uint32(ref>>32) && s.from == from && s.to == to {
			fn = s.fn
			t.freeSlot(i)
		}
	}
	return fn
}

// drop frees every closure rank from parked for rank to before to's death
// generation gen: the messages a death of to, or its readmission,
// stranded. Closures pin user memory; none may outlive its peer. One
// parked at or after gen was sent to the healed or readmitted peer and
// stays, the rule failPeer and failQueued apply to its operation.
func (t *fnTable) drop(from, to int, gen uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.slots {
		if s.fn != nil && s.from == int32(from) && s.to == int32(to) && s.down < gen {
			t.freeSlot(uint32(i))
		}
	}
}

// reset frees every closure in the table (Domain.Close).
func (t *fnTable) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.slots, t.free = nil, nil
}

// freeSlot frees slot i and moves its generation on. Caller holds t.mu.
func (t *fnTable) freeSlot(i uint32) {
	t.slots[i] = fnSlot{gen: t.slots[i].gen + 1}
	t.free = append(t.free, i)
}

// takeFn resolves closure message m on the owner: it takes the closure its
// handle names, clears the flag and trims the handle off the payload. A
// handle that names no closure parked by m's sender for this rank — forged,
// stale, repeated, freed by a death sweep, or sent from another process —
// is counted with the unknown handlers, and the message is dropped.
func (h *host) takeFn(m *Msg) bool {
	d := h.ep.dom
	n := len(m.Payload) - fnRefLen
	if n >= 0 {
		ref := binary.LittleEndian.Uint64(m.Payload[n:])
		m.Fn = d.fns.take(ref, m.From, int32(h.rank))
	}
	if m.Fn == nil {
		d.badHandlerDrops.Add(1)
		return false
	}
	m.Handler &^= fnFlag
	m.Payload = m.Payload[:n:n]
	return true
}
