package gasnet

import (
	"encoding/binary"
	"net"
	"slices"
	"testing"
	"time"
)

// parkedFns reports how many closures d's table holds.
func parkedFns(d *Domain) int {
	d.fns.mu.Lock()
	defer d.fns.mu.Unlock()
	n := 0
	for _, s := range d.fns.slots {
		if s.fn != nil {
			n++
		}
	}
	return n
}

// newIsolatedUDP builds an in-process UDP domain whose sockets carry
// nothing (isolatedConn) and whose peers never fall silent: the only
// frames it receives are the ones a test crafts.
func newIsolatedUDP(t *testing.T, ranks int) *Domain {
	t.Helper()
	d, err := newDomain(Config{
		Ranks: ranks, Conduit: UDP, Fault: &FaultConfig{}, SegmentBytes: 1 << 12,
		SuspectAfter: time.Hour, DownAfter: time.Hour,
	}, func(c *net.UDPConn, _ *Domain) batchConn { return isolatedConn{seqConn{c}} })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

// closureFrame returns a sequenced frame from rank from holding a closure
// message (handler HandlerUserBase, A0 1) whose trailing handle bytes are
// handle, then a plain user message (A0 2).
func closureFrame(from uint16, inc, seq uint32, handle []byte) []byte {
	fn := encodeMsg(nil, &Msg{Handler: HandlerUserBase, A0: 1})
	fn[0] |= fnFlag
	fn = append(fn, handle...)
	plain := encodeMsg(nil, &Msg{Handler: HandlerUserBase, A0: 2})
	b := append(seqHdr(from, inc, seq, 0), frameBatch, 2, 0)
	for _, body := range [][]byte{fn, plain} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(body)))
		b = append(b, body...)
	}
	return b
}

func handleOf(ref uint64) []byte { return binary.LittleEndian.AppendUint64(nil, ref) }

// TestClosureHandleUntrusted: a closure handle comes off the wire, so it is
// input like any other. Each row hands rank 1 (rank 0 of a multiproc
// world in the last row) one crafted frame whose closure message names a
// handle it may not use. The message is counted with the unknown handlers
// and dropped; no closure runs, nothing panics, and the frame's next
// message is still dispatched. The first delivery of the repeated handle
// is the one legitimate use, and runs its closure once.
func TestClosureHandleUntrusted(t *testing.T) {
	d := newIsolatedUDP(t, 3)
	md := newMultiprocWorld(t, 2)[0]
	seqs := map[*Domain]uint32{}
	var users []uint64
	fnRuns := 0
	for _, dom := range []*Domain{d, md} {
		dom.RegisterHandler(HandlerUserBase, func(ep *Endpoint, m *Msg) {
			users = append(users, m.A0)
			if m.Fn != nil {
				m.Fn(ep)
			}
		})
	}
	bad := func(*Endpoint) { t.Error("a closure ran from a handle it was not parked under") }
	once := func(*Endpoint) { fnRuns++ }
	// deliver hands dom's rank to a frame from rank from naming handle,
	// polls, and returns the unknown-handler drops it caused.
	deliver := func(dom *Domain, from uint16, to int, inc uint32, handle []byte) int64 {
		t.Helper()
		seqs[dom]++
		before := dom.Stats().BadHandlerDrops
		users = users[:0]
		wb := dom.arena.get(bufClassLarge)
		wb.b = append(wb.b[:0], closureFrame(from, inc, seqs[dom], handle)...)
		dom.receiveDatagram(dom.Endpoint(to), wb)
		dom.Endpoint(to).Poll()
		if n := len(users); n == 0 || users[n-1] != 2 {
			t.Errorf("dispatched %v, want the frame's plain message last", users)
		}
		return dom.Stats().BadHandlerDrops - before
	}

	for _, tc := range []struct {
		name   string
		dom    *Domain
		from   uint16
		to     int
		handle func() []byte
	}{
		{"forged slot", d, 0, 1, func() []byte { return handleOf(1 << 20) }},
		{"short handle", d, 0, 1, func() []byte { return []byte{0, 0, 0} }},
		{"stale generation", d, 0, 1, func() []byte {
			old := d.fns.park(bad, 0, 1, 0)
			d.fns.take(old, 0, 1)
			d.fns.park(bad, 0, 1, 0) // the same slot, one generation on
			return handleOf(old)
		}},
		{"repeated handle", d, 0, 1, func() []byte {
			ref := d.fns.park(once, 0, 1, 0)
			if n := deliver(d, 0, 1, d.inc, handleOf(ref)); n != 0 || fnRuns != 1 {
				t.Errorf("first delivery of a live handle: %d drops, closure ran %d times; want 0 and once", n, fnRuns)
			}
			return handleOf(ref)
		}},
		{"another sender", d, 0, 1, func() []byte { return handleOf(d.fns.park(bad, 2, 1, 0)) }},
		{"another target", d, 0, 1, func() []byte { return handleOf(d.fns.park(bad, 0, 2, 0)) }},
		{"multiproc", md, 1, 0, func() []byte { return handleOf(md.fns.park(bad, 0, 0, 0)) }},
	} {
		if n := deliver(tc.dom, tc.from, tc.to, tc.dom.inc, tc.handle()); n != 1 {
			t.Errorf("%s: %d messages counted and dropped, want 1", tc.name, n)
		}
	}
	if fnRuns != 1 {
		t.Errorf("the legitimate closure ran %d times, want once", fnRuns)
	}
}

// TestNoClosureOutlivesItsPeer: a parked closure pins user memory, so a
// message that can no longer arrive must not keep its closure parked. Rank
// 0 sends rank 1 a closure message that the isolated wire never delivers;
// whatever then buries rank 1 in rank 0's view — a goodbye, a silence
// verdict, a readmission under a new incarnation (whose old stream's
// frames rank 0 then refuses) — rank 0's next Poll sweeps the peer and
// frees the closure. A closure sent to the peer while it is down is freed
// when its frame is refused at seal, and Close frees whatever is left. The
// sweep frees only what was sent to the buried incarnation: a closure put
// sent after the peer healed, but before the sweep that follows its death,
// is applied and runs once.
func TestNoClosureOutlivesItsPeer(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   func(d *Domain) event
	}{
		{"goodbye", func(d *Domain) event { return event{kind: evBye, inc: d.inc} }},
		{"silence", func(*Domain) event { return event{kind: evExhausted} }},
		{"readmission", func(d *Domain) event { return event{kind: evJoin, inc: d.inc + 1} }},
		{"close", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newIsolatedUDP(t, 2)
			ep0 := d.Endpoint(0)
			never := func(*Endpoint) { t.Error("a closure for an unreachable peer ran") }
			ep0.Send(1, Msg{Handler: HandlerUserBase, Fn: never})
			ep0.PutRemote(1, 0, []byte{1}, never, nil)
			ep0.Flush()
			if n := parkedFns(d); n != 2 {
				t.Fatalf("%d closures parked in flight, want 2", n)
			}
			if tc.ev == nil {
				d.Close()
			} else {
				ep0.host.deliver(1, tc.ev(d))
				ep0.Poll()
			}
			if n := parkedFns(d); n != 0 {
				t.Fatalf("%d closures still parked for a buried peer", n)
			}
			if tc.ev == nil || !ep0.PeerDown(1) {
				return
			}
			ep0.Send(1, Msg{Handler: HandlerUserBase, Fn: never})
			ep0.Flush()
			if n := parkedFns(d); n != 0 {
				t.Errorf("%d closures parked for a down peer after their frame was refused", n)
			}
		})
	}
	t.Run("heal", func(t *testing.T) {
		d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 12})
		defer d.Close()
		ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
		seg := d.Segment(1)
		off, _ := seg.Alloc(24)
		var done []int
		put := func(i int, fn func(*Endpoint)) {
			data := binary.LittleEndian.AppendUint64(nil, uint64(i+1))
			ep0.PutRemote(1, off+uint32(8*i), data, fn, func(err error) {
				if err != nil {
					t.Errorf("put %d: %v", i, err)
				}
				done = append(done, i)
			})
		}
		round := func() {
			ep0.Flush()
			waitDelivered(t, d, ep1, 0)
			ep1.Poll()
			waitDelivered(t, d, ep0, 1)
			ep0.Poll()
		}
		put(0, nil) // rank 0 hears rank 1, so a probe ack can heal it
		round()
		ep0.host.deliver(1, event{kind: evExhausted})
		ep0.host.deliver(1, event{kind: evProbeAck, inc: d.inc})
		if ep0.PeerDown(1) || ep0.DownGen(1) != 1 {
			t.Fatalf("PeerDown %v, DownGen %d; want the peer healed after one death", ep0.PeerDown(1), ep0.DownGen(1))
		}
		ran := 0
		put(1, func(*Endpoint) { ran++ })
		put(2, nil)
		ep0.Poll() // ships both puts, then sweeps the death
		round()
		if !slices.Equal(done, []int{0, 1, 2}) || ran != 1 {
			t.Fatalf("completed puts %v and ran the closure %d times, want [0 1 2] and once", done, ran)
		}
		if w := *seg.WordAt(off + 8); w != 2 {
			t.Errorf("the closure put wrote %d, want 2", w)
		}
		if n := parkedFns(d); n != 0 {
			t.Errorf("%d closures still parked", n)
		}
	})
}
