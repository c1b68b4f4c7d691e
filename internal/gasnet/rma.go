package gasnet

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
)

// ErrBadAddress reports that a remote operation named memory outside the
// target rank's segment (or an invalid atomic op code): the target refused
// the request and replied with an addressing-error status instead of
// touching its memory. Before process-per-rank worlds this was a panic —
// both sides shared one trusted address space. Wire input is untrusted, so
// it is now a completion value, counted in Stats.BadAddrDrops on the
// target.
var ErrBadAddress = errors.New("gasnet: remote address outside target segment")

// This file implements the AM-based remote RMA and atomic protocol: the
// code path taken when the target segment is NOT directly addressable by
// the initiator. Every operation is a request to the target, and it
// completes in one of two shapes, by what it brings back:
//
//   - A value op — a get or a fetching atomic — gets a reply of its own.
//     Where that reply's data lands (a get's buffer, a fetching atomic's
//     8-byte old word) and a done(error) callback, usually the pipeline's
//     cached one, go into one opTable record under a cookie the reply
//     echoes; handleAck lands the data and runs done.
//   - A value-less op — a put, with or without a remote-completion closure
//     or notify, and a non-fetching atomic — brings back only "applied". It
//     appends its done callback to a per-peer completion queue (cumQueue)
//     and carries the entry's per-peer sequence number. The target applies
//     it without replying and, at the end of its dispatch round, sends each
//     peer one cumulative reply (the hPutAck id): every value-less request
//     from that peer through sequence number s is applied. handleCumReply
//     completes the queue through s, in order. A refused request is nacked
//     at once, by its own sequence number, so in the peer's ordered message
//     stream the nack always comes before the cumulative reply that covers
//     it. A closure put keeps that order on every conduit: on UDP its
//     closure rides the stream by handle (fntable.go).
//
// Registering either kind allocates nothing. Both complete inside the
// initiator's Poll — remote operations never complete synchronously, which
// is exactly why the paper's eager-notification optimization is a no-op
// (one predicted-untaken branch) off-node.
//
// done receives nil on the reply path, ErrBadAddress when the target
// refused the request, or ErrPeerUnreachable when the target was declared
// down — either at injection (the request is refused on the spot) or
// later, when the liveness sweep retires the pending entry. On every
// failure the destination is left untouched.

// nopAck is installed when the caller passes a nil completion callback.
func nopAck(error) {}

// admit defaults a nil completion callback and reports whether an
// operation toward to may start. A target already declared down fails the
// operation on the spot instead: that keeps the op table and the
// completion queues free of entries the (already completed) sweep would
// never retire.
func (ep *Endpoint) admit(to int, onDone *func(error)) bool {
	if *onDone == nil {
		*onDone = nopAck
	}
	if ep.PeerDown(to) {
		ep.dom.downPeerFails.Add(1)
		(*onDone)(ErrPeerUnreachable)
		return false
	}
	return true
}

// startOp enters one operation — expecting a reply of kind rep whose
// data lands in dst — in the op table and returns its cookie, or reports
// false when admit refused it.
func (ep *Endpoint) startOp(rep uint8, to int, dst []byte, onDone func(error)) (cookie uint64, ok bool) {
	if !ep.admit(to, &onDone) {
		return 0, false
	}
	return ep.ops.add(rep, to, ep.DownGen(to), dst, onDone), true
}

// startValueless enters one value-less operation in the completion queue
// toward to and returns its sequence number, or reports false when admit
// refused it.
func (ep *Endpoint) startValueless(to int, onDone func(error)) (seq uint64, ok bool) {
	if !ep.admit(to, &onDone) {
		return 0, false
	}
	c := ep.cumulative()
	c.n++
	ep.ops.started.Add(1)
	return c.out[to].push(onDone, ep.DownGen(to)), true
}

// PutRemote initiates a put of data into the target rank's segment at byte
// offset off. remoteFn, if non-nil, is executed on the target's progress
// goroutine after the data is applied (the paper's remote completion /
// remote_cx::as_rpc). onDone, if non-nil, runs on the initiating rank's
// goroutine once the target has acknowledged (operation completion, nil
// error) or the target is declared unreachable. data is copied at
// injection time, so the caller may reuse the buffer immediately (source
// completion is synchronous). The put is value-less: it completes on the
// target's cumulative reply.
func (ep *Endpoint) PutRemote(to int, off uint32, data []byte, remoteFn func(*Endpoint), onDone func(error)) {
	seq, ok := ep.startValueless(to, onDone)
	if !ok {
		return
	}
	// Stage the payload in a pooled buffer: Send consumes the reference
	// (transferring it to the receiver in memory, or dropping it once the
	// bytes are on the wire), so steady-state puts allocate nothing.
	wb := ep.dom.arena.get(len(data))
	copy(wb.b, data)
	ep.Send(to, Msg{
		Handler: hPutReq,
		A0:      seq,
		A1:      uint64(off),
		Payload: wb.b,
		Fn:      remoteFn,
		buf:     wb,
	})
}

// PutNotifyRemote initiates a put that lands data at off in the target
// rank's segment and then runs the target's registered notify handler id
// with args during its user-level progress — the wire-encodable form of
// remote completion (it names a registered handler, not a closure, so it
// works across address spaces; see Domain.SetNotifyHook). The request
// packs the notify id into A2 (biased by one so zero keeps meaning "no
// notify") and the argument length into A3; args ride behind the data in
// the payload.
// onDone follows PutRemote's contract; the op is value-less.
func (ep *Endpoint) PutNotifyRemote(to int, off uint32, data []byte, id uint32, args []byte, onDone func(error)) {
	seq, ok := ep.startValueless(to, onDone)
	if !ok {
		return
	}
	wb := ep.dom.arena.get(len(data) + len(args))
	copy(wb.b, data)
	copy(wb.b[len(data):], args)
	ep.Send(to, Msg{
		Handler: hPutReq,
		A0:      seq,
		A1:      uint64(off),
		A2:      uint64(id) + 1,
		A3:      uint64(len(args)),
		Payload: wb.b,
		buf:     wb,
	})
}

// splitPut validates a put request's addressing and splits its payload
// into the data to land and the notify-argument bytes riding behind it
// (A3 is the argument length; zero for plain puts, so pre-notify senders
// decode unchanged). An invalid request — argument length exceeding the
// payload, or a destination range outside this rank's segment — is
// counted, nacked with an addressing-error ack, and refused.
func splitPut(ep *Endpoint, m *Msg) (data, args []byte, ok bool) {
	if m.A3 <= uint64(len(m.Payload)) {
		cut := uint64(len(m.Payload)) - m.A3
		data, args = m.Payload[:cut], m.Payload[cut:]
		if ep.Segment().ValidRange(m.A1, uint64(len(data))) {
			return data, args, true
		}
	}
	ep.dom.badAddrDrops.Add(1)
	ep.Send(int(m.From), Msg{Handler: hPutAck, A0: m.A0, A3: ackBadAddr})
	return nil, nil, false
}

// runNotify dispatches a put's notify (if the request carried one) to the
// runtime layer's hook. Runs on the target rank's goroutine; args must not
// be retained past the call.
func (ep *Endpoint) runNotify(m *Msg, args []byte) {
	if m.A2 == 0 {
		return
	}
	if hook := ep.dom.notifyHook; hook != nil {
		hook(ep, uint32(m.A2-1), args)
	}
}

func handlePutReq(ep *Endpoint, m *Msg) {
	data, args, ok := splitPut(ep, m)
	if !ok {
		return
	}
	ep.Segment().CopyIn(uint32(m.A1), data)
	if m.Fn != nil {
		m.Fn(ep)
	}
	ep.runNotify(m, args)
	ep.noteApplied(m.From, m.A0)
}

// applyPutHeld services a put request that carries user-level work (a
// remote-completion closure or a wire notify id) at internal-level
// progress: it validates and applies the data and acknowledges it now, but
// returns the user-level work as a closure for the endpoint to hold until
// the next Poll — remote_cx::as_rpc semantics.
// ok is false when the request was refused (nack already sent); fn is nil
// when the request carried no user-level work after all.
func (ep *Endpoint) applyPutHeld(m *Msg) (fn func(*Endpoint), ok bool) {
	data, args, ok := splitPut(ep, m)
	if !ok {
		return nil, false
	}
	ep.Segment().CopyIn(uint32(m.A1), data)
	ep.noteApplied(m.From, m.A0)
	fn = m.Fn
	if m.A2 != 0 {
		if hook := ep.dom.notifyHook; hook != nil {
			// The drain buffer is recycled before Poll runs the held work,
			// so the notify arguments must be detached. The allocation is
			// confined to the held path — Poll-serviced notifies (the
			// common case) pass the payload through without copying.
			id := uint32(m.A2 - 1)
			argsCopy := append([]byte(nil), args...)
			if inner := fn; inner != nil {
				fn = func(ep *Endpoint) { inner(ep); hook(ep, id, argsCopy) }
			} else {
				fn = func(ep *Endpoint) { hook(ep, id, argsCopy) }
			}
		}
	}
	return fn, true
}

// GetRemote initiates a get of n bytes from the target rank's segment at
// byte offset off into dst (which must have length >= n). onDone runs on
// the initiating rank's goroutine during a later Poll, after the data has
// been stored into dst (nil error), or with the error that failed the get
// (dst untouched).
func (ep *Endpoint) GetRemote(to int, off uint32, n int, dst []byte, onDone func(error)) {
	cookie, ok := ep.startOp(hGetRep, to, dst, onDone)
	if !ok {
		return
	}
	ep.Send(to, Msg{
		Handler: hGetReq,
		A0:      cookie,
		A1:      uint64(off),
		A2:      uint64(n),
	})
}

func handleGetReq(ep *Endpoint, m *Msg) {
	// Wire-supplied offset and length are untrusted: a request outside the
	// segment — or one whose reply could never fit a datagram, which would
	// otherwise be a remote-triggerable panic at the reply send — is
	// counted and nacked, never applied.
	if !ep.Segment().ValidRange(m.A1, m.A2) ||
		(ep.dom.cfg.Conduit == UDP && m.A2 > maxUDPPayload) {
		ep.dom.badAddrDrops.Add(1)
		ep.Send(int(m.From), Msg{Handler: hGetRep, A0: m.A0, A3: ackBadAddr})
		return
	}
	n := int(m.A2)
	wb := ep.dom.arena.get(n)
	ep.Segment().CopyOut(uint32(m.A1), wb.b)
	ep.Send(int(m.From), Msg{Handler: hGetRep, A0: m.A0, Payload: wb.b, buf: wb})
}

// amoCumulative is the A1 bit (above the op code) that marks a
// non-fetching atomic request: A0 is then a value-less sequence number,
// and the target reports the op in its cumulative reply instead of
// replying with the old value.
const amoCumulative = 1 << 63

// AmoRemote initiates an atomic op on the 8-byte word at off in the target
// rank's segment. A fetching op (old is 8 bytes) completes like GetRemote:
// on the reply the word's previous value is stored into old (in native
// byte order, so a uint64, int64 or float64 viewed through ValueBytes
// reads it as is) before onDone(nil) runs on the initiating rank's
// goroutine during a later Poll. A non-fetching op (old nil) is value-less
// and completes on the target's cumulative reply. On failure old is
// untouched and onDone receives the error.
func (ep *Endpoint) AmoRemote(to int, off uint32, op AmoOp, operand1, operand2 uint64, old []byte, onDone func(error)) {
	a1 := uint64(off) | uint64(op)<<32
	var a0 uint64
	var ok bool
	if old == nil {
		a0, ok = ep.startValueless(to, onDone)
		a1 |= amoCumulative
	} else {
		a0, ok = ep.startOp(hAmoRep, to, old, onDone)
	}
	if !ok {
		return
	}
	ep.Send(to, Msg{
		Handler: hAmoReq,
		A0:      a0,
		A1:      a1,
		A2:      operand1,
		A3:      operand2,
	})
}

func handleAmoReq(ep *Endpoint, m *Msg) {
	valueless := m.A1&amoCumulative != 0
	off := uint32(m.A1)
	code := (m.A1 &^ amoCumulative) >> 32
	// ApplyAmo panics on invalid input by contract (trusted callers); a
	// wire request is not a trusted caller, so validate the op code,
	// alignment, and bounds first and nack instead.
	if code >= uint64(amoOpCount) || off%8 != 0 || !ep.Segment().ValidRange(uint64(off), 8) {
		ep.dom.badAddrDrops.Add(1)
		rep := hAmoRep
		if valueless {
			rep = hPutAck
		}
		ep.Send(int(m.From), Msg{Handler: rep, A0: m.A0, A3: ackBadAddr})
		return
	}
	old := ApplyAmo(ep.Segment(), off, AmoOp(code), m.A2, m.A3)
	if valueless {
		ep.noteApplied(m.From, m.A0)
		return
	}
	ep.Send(int(m.From), Msg{Handler: hAmoRep, A0: m.A0, A1: old})
}

// opTable tracks outstanding value operations by cookie. It is only
// touched by the owning rank's goroutine (initiation, the ack handler,
// and the liveness sweep all run there), so it needs no locking.
type opTable struct {
	slots []opSlot
	free  []uint32
	n     int

	// Lifetime tallies, surfaced through Stats, of every remote operation
	// — the table's and the completion queues' (cumState): started counts
	// every registered operation, acked every one a reply or nack
	// resolved, failed every one retired with an error (peer declared
	// down). They are the substrate leg of the runtime's op-lifecycle
	// phase instrumentation (started pairs with initiation, acked with the
	// wire-acked phase, failed with the failed phase). Atomic because
	// Stats() snapshots them from scrape goroutines while the owner
	// goroutine mutates the table.
	started atomic.Int64
	acked   atomic.Int64
	failed  atomic.Int64
}

// opSlot is one outstanding value operation: where its reply lands, what
// runs when it completes, and which reply it expects. A free slot has a
// nil done.
type opSlot struct {
	// done is the completion callback. It has the pipeline's cached
	// callback's shape, so it is stored as is, never wrapped.
	done func(error)
	// dst receives the reply's data before done(nil) runs: a get's payload
	// is copied into it, a fetching atomic's old word stored into it. No
	// failure writes it.
	dst []byte
	// peer is the target rank, so a peer-death sweep can find the slot.
	peer int32
	// gen is the peer's death generation at registration (Endpoint.
	// DownGen): a peer-death sweep fails only entries whose gen predates
	// the death, so operations registered against a readmitted peer
	// survive the sweep burying its previous incarnation.
	gen uint32
	// rep is the reply handler the operation expects: hGetRep or hAmoRep.
	rep uint8
}

// add registers one operation and returns its cookie.
func (t *opTable) add(rep uint8, peer int, gen uint32, dst []byte, done func(error)) uint64 {
	s := opSlot{done: done, dst: dst, peer: int32(peer), gen: gen, rep: rep}
	t.n++
	t.started.Add(1)
	if len(t.free) > 0 {
		id := t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
		t.slots[id] = s
		return uint64(id)
	}
	t.slots = append(t.slots, s)
	return uint64(len(t.slots) - 1)
}

// take removes and returns the slot for cookie if it is live and expects
// a reply of kind rep. Anything else — a cookie out of range or already
// retired (a stale reply from a peer whose operations the liveness sweep
// failed), or a reply of the wrong kind (forged or corrupt) — reports
// false and leaves the table as it was, so the genuine reply still
// completes the operation; the caller must count and drop.
func (t *opTable) take(cookie uint64, rep uint8) (opSlot, bool) {
	if cookie >= uint64(len(t.slots)) {
		return opSlot{}, false
	}
	s := t.slots[cookie]
	if s.done == nil || s.rep != rep {
		return opSlot{}, false
	}
	t.release(uint32(cookie))
	t.acked.Add(1)
	return s, true
}

func (t *opTable) release(id uint32) {
	t.slots[id] = opSlot{}
	t.free = append(t.free, id)
	t.n--
}

// failPeer retires every entry targeting peer whose registration
// generation predates gen (the peer's current death generation), invoking
// its callback with err, and returns the number failed. Entries
// registered at or after gen belong to the peer's readmitted incarnation
// and are left standing. Owner goroutine only.
func (t *opTable) failPeer(peer int32, gen uint32, err error) int {
	n := 0
	for id, s := range t.slots {
		if s.done == nil || s.peer != peer || s.gen >= gen {
			continue
		}
		t.release(uint32(id))
		t.failed.Add(1)
		n++
		s.done(err)
	}
	return n
}

// live reports the number of registered, uncompleted operations.
func (t *opTable) live() int { return t.n }

// ackBadAddr is the A3 status a reply carries when the request was refused
// for an out-of-segment address or invalid op code (A3 zero means success,
// so pre-existing peers' replies decode compatibly). The requester's
// callback receives ErrBadAddress and nothing lands.
const ackBadAddr = 1

// handleAck resolves every per-op reply — get reply, atomic reply — in
// one place: A0 carries the cookie, the handler id the reply kind, A3 the
// target's status. Unknown cookies and replies of the wrong kind are
// counted and dropped (stale replies outliving a peer-death sweep, forged
// or corrupt frames). Reply data comes off the wire untrusted; the kind
// check means it only ever lands in a destination registered for it.
func handleAck(ep *Endpoint, m *Msg) {
	s, ok := ep.ops.take(m.A0, m.Handler)
	if !ok {
		ep.dom.badCookieDrops.Add(1)
		return
	}
	if m.A3 != 0 {
		s.done(ErrBadAddress)
		return
	}
	switch m.Handler {
	case hGetRep:
		copy(s.dst, m.Payload)
	case hAmoRep:
		binary.NativeEndian.PutUint64(s.dst, m.A1)
	}
	s.done(nil)
}

// cumState is one endpoint's value-less completion state, both halves,
// allocated on its first value-less op or request. Owner goroutine only.
type cumState struct {
	// out[peer] is the initiator half: the queue of value-less ops toward
	// peer awaiting its cumulative reply; n counts their unresolved
	// entries across every peer (PendingOps).
	out []cumQueue
	n   int

	// in[peer] is the target half: the highest sequence number of peer's
	// value-less requests applied since the last cumulative reply to peer
	// (0: none); dirty lists the peers with in[peer] set, in first-apply
	// order.
	in    []uint64
	dirty []int32

	// spare is the buffer detach collects a run of callbacks in.
	spare []func(error)
}

// cumulative returns the endpoint's value-less state, allocating it on
// first use.
func (ep *Endpoint) cumulative() *cumState {
	if ep.cum == nil {
		n := ep.dom.cfg.Ranks
		c := &cumState{out: make([]cumQueue, n), in: make([]uint64, n)}
		for i := range c.out {
			c.out[i].head, c.out[i].tail = 1, 1
		}
		ep.cum = c
	}
	return ep.cum
}

// cumQueue is the completion queue of an initiator's value-less ops
// toward one peer: a grow-only ring of the entries with sequence numbers
// head through tail-1. Sequence numbers start at 1 and never reset — not
// on a peer's death, not on its readmission — so a reply from before a
// sweep reads below head.
type cumQueue struct {
	ring []cumEntry // power-of-two length; seq lives at seq&(len-1)
	head uint64     // oldest entry not yet resolved
	tail uint64     // the next sequence number to assign
}

// cumEntry is one queued value-less op: its completion callback (nil once
// a nack failed it) and the peer's death generation at registration, for
// the sweep (see opSlot.gen).
type cumEntry struct {
	done func(error)
	gen  uint32
}

// push appends one op and returns its sequence number.
func (q *cumQueue) push(done func(error), gen uint32) uint64 {
	if q.tail-q.head == uint64(len(q.ring)) {
		ring := make([]cumEntry, max(2*len(q.ring), 64))
		for s := q.head; s < q.tail; s++ {
			ring[s&uint64(len(ring)-1)] = q.ring[s&uint64(len(q.ring)-1)]
		}
		q.ring = ring
	}
	seq := q.tail
	q.ring[seq&uint64(len(q.ring)-1)] = cumEntry{done: done, gen: gen}
	q.tail++
	return seq
}

// pop removes the head entry and returns it.
func (q *cumQueue) pop() cumEntry {
	e := &q.ring[q.head&uint64(len(q.ring)-1)]
	out := *e
	*e = cumEntry{}
	q.head++
	return out
}

// skipFailed moves head past the entries at the front that a nack
// already resolved.
func (q *cumQueue) skipFailed() {
	for q.head < q.tail && q.ring[q.head&uint64(len(q.ring)-1)].done == nil {
		q.pop()
	}
}

// detach removes q's entries through sequence number through and returns
// the callbacks of those no nack resolved, in order, in c's reused run
// buffer. The whole run leaves the queue before any of its callbacks runs
// (finish), so a callback may start new ops toward the same peer, or poll
// and resolve later entries, without touching this run.
func (c *cumState) detach(q *cumQueue, through uint64) []func(error) {
	run := c.spare[:0]
	c.spare = nil // a nested run takes a buffer of its own
	for q.head <= through {
		if e := q.pop(); e.done != nil {
			run = append(run, e.done)
		}
	}
	q.skipFailed()
	c.n -= len(run)
	return run
}

// finish runs a detached run's callbacks with err, in order, and keeps
// its buffer for the next run.
func (c *cumState) finish(run []func(error), err error) {
	for i, done := range run {
		run[i] = nil
		done(err)
	}
	c.spare = run[:0]
}

// noteApplied records, on the target, that value-less request seq from
// peer from is applied; the end of the dispatch round reports it
// (endRound). One peer's requests arrive in its send order and are
// dispatched in that order, however deeply rounds nest (Endpoint.rest),
// and a request's handler applies its data before it runs any user code
// that could poll. So whenever a round ends, every request from the peer
// that arrived before the highest one noted is applied or was nacked, and
// the reply may name that one. Zero is never assigned: a request carrying
// it gets no reply.
func (ep *Endpoint) noteApplied(from int32, seq uint64) {
	c := ep.cumulative()
	if c.in[from] == 0 && seq != 0 {
		c.dirty = append(c.dirty, from)
	}
	c.in[from] = max(c.in[from], seq)
}

// endRound ends a dispatch round (Poll, PollInternal): it restores the
// inbox scratch view a nested round's drain took (outer) and sends every
// peer whose value-less requests this rank applied since the last reply
// one cumulative reply. A round nested in another replies too, so a
// handler blocked on an operation toward a peer that is itself blocked the
// same way still answers it.
func (ep *Endpoint) endRound(outer []Msg) {
	ep.depth--
	if outer != nil || (ep.cum != nil && len(ep.cum.dirty) > 0) {
		ep.finishRound(outer)
	}
}

// finishRound is endRound's slow path, kept apart so that endRound
// inlines into Poll.
func (ep *Endpoint) finishRound(outer []Msg) {
	if outer != nil {
		ep.inbox.scratch = outer
	}
	c := ep.cum
	if c == nil {
		return
	}
	for _, p := range c.dirty {
		seq := c.in[p]
		c.in[p] = 0
		ep.Send(int(p), Msg{Handler: hPutAck, A0: seq})
	}
	c.dirty = c.dirty[:0]
}

// handleCumReply resolves a cumulative reply or a nack from the target
// (handler hPutAck; A0 a sequence number, A3 the target's status). A nack
// fails exactly its own entry with ErrBadAddress. A cumulative reply
// completes, in order, every entry through A0 that no nack failed. A
// sequence number below the queue's head (a reply to ops a sweep already
// failed) or at or beyond its tail (forged or corrupt), and a nack for an
// entry already resolved, are counted in BadCookieDrops and complete
// nothing.
func handleCumReply(ep *Endpoint, m *Msg) {
	c := ep.cum
	if c == nil {
		ep.dom.badCookieDrops.Add(1)
		return
	}
	q := &c.out[m.From]
	seq := m.A0
	if seq < q.head || seq >= q.tail {
		ep.dom.badCookieDrops.Add(1)
		return
	}
	if m.A3 != 0 {
		e := &q.ring[seq&uint64(len(q.ring)-1)]
		done := e.done
		if done == nil {
			ep.dom.badCookieDrops.Add(1)
			return
		}
		e.done = nil
		c.n--
		ep.ops.acked.Add(1)
		q.skipFailed()
		done(ErrBadAddress)
		return
	}
	run := c.detach(q, seq)
	ep.ops.acked.Add(int64(len(run)))
	c.finish(run, nil)
}

// failQueued retires, with err, the entries toward peer registered before
// its death generation gen — a prefix, since generations only grow along
// the queue — and returns the number failed. Owner goroutine only.
func (ep *Endpoint) failQueued(peer int, gen uint32, err error) int {
	c := ep.cum
	if c == nil {
		return 0
	}
	q := &c.out[peer]
	end := q.head
	for ; end < q.tail; end++ {
		if e := q.ring[end&uint64(len(q.ring)-1)]; e.done != nil && e.gen >= gen {
			break
		}
	}
	run := c.detach(q, end-1)
	ep.ops.failed.Add(int64(len(run)))
	c.finish(run, err)
	return len(run)
}
