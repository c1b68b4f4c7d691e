package gasnet

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"slices"
	"testing"
	"time"
)

// TestCumulativeReply pins the value-less completion rule end to end.
// Rank 0 starts 512 value-less ops toward rank 1 — puts and xors,
// alternating, with one bad-address put in the middle — and flushes once.
// Rank 1 polls once and answers with exactly one nack and one cumulative
// reply. Rank 0's next Poll completes all 512, each exactly once: the
// bad-address put first, by its nack, with ErrBadAddress, then every other
// op in issue order with nil. The puts and xors all landed, and a round at
// steady state allocates nothing.
//
// The rule rests on one sender's requests being applied in send order,
// and each subtest pins one conduit's share of that: udp, the sequenced
// stream and the frame walk (under whatever fault preset the environment
// arms — make test-fault — since each poll waits until the stream has
// delivered everything sent); sim, the constant-latency release times;
// sim-spill, the inbox's per-producer FIFO across its ring→backlog spill
// (64 user messages queued ahead of the ops overflow rank 1's 512-cell
// ring).
func TestCumulativeReply(t *testing.T) {
	t.Run("udp", func(t *testing.T) {
		d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 12})
		defer d.Close()
		wait := func(ep *Endpoint, from int) { waitDelivered(t, d, ep, from) }
		cumulativeRounds(t, d, 0, wait, os.Getenv(faultEnvVar) == "")
		s := d.Stats()
		t.Logf("%d datagrams, %d faults injected, %d retransmits", s.DatagramsSent, s.FaultsInjected, s.Retransmits)
	})
	sim := func(t *testing.T, userFirst int) {
		d := newTestDomain(t, Config{Ranks: 2, Conduit: SIM, SimLatency: time.Microsecond, SegmentBytes: 1 << 12})
		wait := func(*Endpoint, int) {
			for start := time.Now(); time.Since(start) < 20*time.Microsecond; {
			}
		}
		cumulativeRounds(t, d, userFirst, wait, true)
	}
	t.Run("sim", func(t *testing.T) { sim(t, 0) })
	t.Run("sim-spill", func(t *testing.T) { sim(t, 64) })
}

// waitDelivered parks ep until its stream from rank from has delivered
// every frame rank from has sent it.
func waitDelivered(t *testing.T, d *Domain, ep *Endpoint, from int) {
	t.Helper()
	sent, got := d.peer(from, ep.Rank()), d.peer(ep.Rank(), from)
	for deadline := time.Now().Add(10 * time.Second); ; ep.Park() {
		sent.mu.Lock()
		next := sent.nextSeq
		sent.mu.Unlock()
		got.mu.Lock()
		cum := got.cumSeq
		got.mu.Unlock()
		if cum >= next {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank %d: frames through %d from rank %d never arrived (have %d)", ep.Rank(), next, from, cum)
		}
	}
}

// cumulativeRounds runs TestCumulativeReply's round on d: eight times
// checked, then measured by AllocsPerRun (when allocs is set, outside the
// race detector). userFirst user messages are sent ahead of each round's ops;
// wait(ep, from) returns once everything rank from sent ep is deliverable.
func cumulativeRounds(t *testing.T, d *Domain, userFirst int, wait func(ep *Endpoint, from int), allocs bool) {
	const ops, bad = 512, 200
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
	seg := d.Segment(1)
	putOff, _ := seg.Alloc(8)
	xorOff, _ := seg.Alloc(8)
	badOff := uint32(seg.Size())
	d.RegisterHandler(HandlerUserBase, func(*Endpoint, *Msg) {})
	var nacks, cums int
	inner := d.handlers[hPutAck]
	d.handlers[hPutAck] = func(ep *Endpoint, m *Msg) {
		if m.A3 != 0 {
			nacks++
		} else {
			cums++
		}
		inner(ep, m)
	}

	// Everything a round writes through lives outside it, as in a
	// caller's loop: the callbacks, the completion order, the put data.
	order := make([]int, 0, 2*ops)
	errs := make([]error, ops)
	dones := make([]func(error), ops)
	for i := range dones {
		dones[i] = func(err error) {
			order = append(order, i)
			errs[i] = err
		}
	}
	var data [8]byte
	var xors uint64
	rounds := 0
	round := func() (polled int) {
		rounds++
		order = order[:0]
		for range userFirst {
			ep0.Send(1, Msg{Handler: HandlerUserBase})
		}
		for i := range ops {
			switch {
			case i == bad:
				ep0.PutRemote(1, badOff, data[:], nil, dones[i])
			case i%2 == 0:
				binary.NativeEndian.PutUint64(data[:], uint64(rounds<<16|i))
				ep0.PutRemote(1, putOff, data[:], nil, dones[i])
			default:
				ep0.AmoRemote(1, xorOff, AmoXor, uint64(i), 0, nil, dones[i])
				xors ^= uint64(i)
			}
		}
		ep0.Flush()
		wait(ep1, 0)
		polled = ep1.Poll()
		wait(ep0, 1)
		ep0.Poll()
		return polled
	}

	// Checked rounds: one on a fresh world, then more with every buffer
	// grown to its steady-state size (and, under a fault preset, more
	// chances for the shim to hit the round's frames).
	for r := 0; r < 8; r++ {
		before := d.Stats()
		nacks, cums = 0, 0
		if n := round(); n != userFirst+ops {
			t.Errorf("round %d: rank 1's one Poll dispatched %d messages, want %d", r, n, userFirst+ops)
		}
		if nacks != 1 || cums != 1 {
			t.Errorf("round %d: rank 1 answered %d ops with %d nacks and %d cumulative replies, want 1 and 1", r, ops, nacks, cums)
		}
		if len(order) != ops || order[0] != bad {
			t.Fatalf("round %d: %d completions, first %v; want %d, the bad-address op (%d) first",
				r, len(order), order[:min(len(order), 1)], ops, bad)
		}
		for k, i := range order[1:] {
			want := k
			if k >= bad {
				want++
			}
			if i != want {
				t.Fatalf("round %d: completion %d was op %d, want %d: the cumulative reply completes in issue order", r, k+1, i, want)
			}
		}
		for i, err := range errs {
			want := error(nil)
			if i == bad {
				want = ErrBadAddress
			}
			if !errors.Is(err, want) {
				t.Errorf("round %d: op %d completed with %v, want %v", r, i, err, want)
			}
		}
		if got := *seg.WordAt(putOff); got != uint64(rounds<<16|(ops-2)) {
			t.Errorf("round %d: put word %#x, want the last put's %#x", r, got, rounds<<16|(ops-2))
		}
		if got := *seg.WordAt(xorOff); got != xors {
			t.Errorf("round %d: xor word %#x, want %#x", r, got, xors)
		}
		if n := ep0.PendingOps(); n != 0 {
			t.Errorf("round %d: PendingOps = %d, want 0", r, n)
		}
		s := d.Stats()
		if n := s.RemoteOpsStarted - before.RemoteOpsStarted; n != ops {
			t.Errorf("round %d: RemoteOpsStarted rose by %d, want %d", r, n, ops)
		}
		if n := s.RemoteOpsAcked - before.RemoteOpsAcked; n != ops {
			t.Errorf("round %d: RemoteOpsAcked rose by %d, want %d", r, n, ops)
		}
		if userFirst > 0 && s.BacklogSpills == before.BacklogSpills {
			t.Errorf("round %d: no inbox entry spilled to the backlog", r)
		}
	}
	if !allocs || raceEnabled {
		return
	}
	nacks, cums = 0, 0
	if a := testing.AllocsPerRun(20, func() { round() }); a != 0 {
		t.Errorf("%.0f allocations per round of %d ops, want 0", a, ops)
	}
	// AllocsPerRun runs the function once more than it measures.
	if len(order) != ops || nacks != 21 || cums != 21 {
		t.Errorf("measured rounds: %d completions in the last, %d nacks and %d cumulative replies in all; want %d, 21 and 21",
			len(order), nacks, cums, ops)
	}
}

// TestClosurePutKeepsItsOwnReply: on the UDP conduit a put carrying a
// closure travels in memory while every other request rides the wire, so
// it can be applied ahead of a wire put sent before it. It therefore
// completes on a reply of its own: a cumulative reply covering it would
// also complete the earlier wire put, which the target has not applied.
// Rank 0 stages a wire put, then sends a closure put; rank 1 applies the
// closure put (the wire put is still staged at rank 0) and answers it;
// rank 0's Poll completes the closure put alone.
func TestClosurePutKeepsItsOwnReply(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 12})
	defer d.Close()
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
	seg := d.Segment(1)
	wireOff, _ := seg.Alloc(8)
	memOff, _ := seg.Alloc(8)
	var wireErr, memErr []error
	ran := false
	ep0.PutRemote(1, wireOff, []byte{1, 1, 1, 1, 1, 1, 1, 1}, nil, func(err error) { wireErr = append(wireErr, err) })
	ep0.PutRemote(1, memOff, []byte{2, 2, 2, 2, 2, 2, 2, 2}, func(*Endpoint) { ran = true },
		func(err error) { memErr = append(memErr, err) })
	if n := ep1.Poll(); n != 1 || !ran {
		t.Fatalf("rank 1 dispatched %d messages (closure ran: %v), want the closure put alone", n, ran)
	}
	waitDelivered(t, d, ep0, 1)
	ep0.Poll()
	if len(memErr) != 1 || memErr[0] != nil {
		t.Errorf("closure put resolved %v, want once with nil", memErr)
	}
	if len(wireErr) != 0 || *seg.WordAt(wireOff) != 0 {
		t.Fatalf("wire put resolved %v with %#x in its word: completed before the target applied it", wireErr, *seg.WordAt(wireOff))
	}
	if n := ep0.PendingOps(); n != 1 {
		t.Errorf("PendingOps = %d, want the wire put's 1", n)
	}
	spinBoth(t, d, func() bool { return len(wireErr) > 0 })
	if len(wireErr) != 1 || wireErr[0] != nil || *seg.WordAt(wireOff) != 0x0101010101010101 {
		t.Errorf("wire put resolved %v with %#x in its word, want once with nil after landing", wireErr, *seg.WordAt(wireOff))
	}
}

// TestNestedRoundResumesEnclosingList: a handler that polls (the
// runtime's progress may re-enter from a callback) runs a dispatch round
// inside another. The nested round first dispatches what the enclosing
// round drained and left — here put 1, queued behind the polling user
// message — and only then the later put 2 it drains itself, so it applies
// one peer's requests in arrival order and its cumulative reply through
// put 2 covers only applied requests. It leaves from the nested round,
// before the handler returns, and the outer round has nothing left to
// dispatch.
func TestNestedRoundResumesEnclosingList(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: SIM, SimLatency: time.Nanosecond, SegmentBytes: 1 << 12})
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
	var replies []uint64
	inner := d.handlers[hPutAck]
	d.handlers[hPutAck] = func(ep *Endpoint, m *Msg) {
		replies = append(replies, m.A0)
		inner(ep, m)
	}
	var order []uint64
	innerPut := d.handlers[hPutReq]
	d.handlers[hPutReq] = func(ep *Endpoint, m *Msg) {
		order = append(order, m.A0)
		innerPut(ep, m)
	}
	done := 0
	seq1, _ := ep0.startValueless(1, func(err error) {
		if err != nil {
			t.Errorf("put 1: %v", err)
		}
		done++
	})
	seq2, _ := ep0.startValueless(1, func(err error) {
		if err != nil {
			t.Errorf("put 2: %v", err)
		}
		done++
	})
	put := func(seq uint64, off uint32) Msg {
		return Msg{Handler: hPutReq, From: 0, A0: seq, A1: uint64(off), Payload: make([]byte, 8)}
	}
	d.RegisterHandler(HandlerUserBase, func(ep *Endpoint, _ *Msg) {
		ep.inbox.push(put(seq2, 8))
		if n := ep.Poll(); n != 2 {
			t.Errorf("nested Poll dispatched %d messages, want put 1 and put 2", n)
		}
		if ep0.InboxEmpty() {
			t.Error("the nested round sent no cumulative reply")
		}
	})
	ep1.inbox.push(Msg{Handler: HandlerUserBase, From: 0})
	ep1.inbox.push(put(seq1, 0))
	if n := ep1.Poll(); n != 1 {
		t.Errorf("outer Poll dispatched %d messages, want the user message alone", n)
	}
	if len(order) != 2 || order[0] != seq1 || order[1] != seq2 {
		t.Errorf("puts dispatched in order %v, want [%d %d]", order, seq1, seq2)
	}
	spinBoth(t, d, func() bool { return done == 2 })
	if len(replies) != 1 || replies[0] != seq2 {
		t.Errorf("rank 1 sent cumulative replies %v, want one, through %d", replies, seq2)
	}
	if n := d.Stats().BadCookieDrops; n != 0 {
		t.Errorf("BadCookieDrops = %d, want 0", n)
	}
}

// TestNestedRoundsReplyToEachOther: each rank's put completion callback
// starts a second put toward the other rank and polls until that put has
// completed and the other rank's callback has started. One test goroutine
// drives both ranks, so whichever callback runs first is still blocked
// when the other one starts, and every poll of its rank is a round nested
// in it: the inner callback's put completes only if such a nested round
// replies. Both puts land and both callbacks finish, on SIM and on an
// in-process UDP pair.
func TestNestedRoundsReplyToEachOther(t *testing.T) {
	run := func(t *testing.T, d *Domain) {
		eps := []*Endpoint{d.Endpoint(0), d.Endpoint(1)}
		deadline := time.Now().Add(10 * time.Second)
		pollAll := func() {
			if time.Now().After(deadline) {
				t.Fatal("timeout: a nested round did not answer its peer")
			}
			for _, ep := range eps {
				ep.Poll()
			}
		}
		offs := make([]uint32, 2)
		for r := range offs {
			offs[r], _ = d.Segment(r).Alloc(16)
		}
		var started, finished [2]bool
		for r, ep := range eps {
			peer := 1 - r
			ep.PutRemote(peer, offs[peer], []byte{1}, nil, func(err error) {
				if err != nil {
					t.Errorf("rank %d first put: %v", r, err)
				}
				started[r] = true
				done := false
				ep.PutRemote(peer, offs[peer]+8, []byte{2}, nil, func(err error) {
					if err != nil {
						t.Errorf("rank %d second put: %v", r, err)
					}
					done = true
				})
				for !done || !started[peer] {
					pollAll()
				}
				finished[r] = true
			})
		}
		for !finished[0] || !finished[1] {
			pollAll()
		}
		for r := range offs {
			if b := d.Segment(r).BytesAt(offs[r], 9); b[0] != 1 || b[8] != 2 {
				t.Errorf("rank %d segment holds %v, want both puts", r, b)
			}
		}
	}
	t.Run("sim", func(t *testing.T) {
		run(t, newTestDomain(t, Config{Ranks: 2, Conduit: SIM, SimLatency: time.Microsecond, SegmentBytes: 1 << 12}))
	})
	t.Run("udp", func(t *testing.T) {
		d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 12})
		defer d.Close()
		run(t, d)
	})
}

// TestNestedPollKeepsArrivalOrder: a Poll nested in a handler dispatches
// the messages the enclosing round drained and left before anything it
// drains itself, each exactly once — on SIM, where the enclosing round's
// list is the inbox's drain buffer; with the messages held by a
// PollInternal; and on UDP, where it is the rest of a received frame.
// Rank 1 holds user messages 1, 2, 3; the handler for 1 delivers 10 and
// 11 and polls. Every frame buffer goes back to its arena.
func TestNestedPollKeepsArrivalOrder(t *testing.T) {
	want := []uint64{1, 2, 3, 10, 11}
	record := func(d *Domain, deliver func(ep *Endpoint, tags ...uint64)) *[]uint64 {
		var got []uint64
		d.RegisterHandler(HandlerUserBase, func(ep *Endpoint, m *Msg) {
			got = append(got, m.A0)
			if m.A0 == 1 {
				deliver(ep, 10, 11)
				ep.Poll()
				if m.A0 != 1 {
					t.Errorf("the nested Poll rewrote the message in dispatch: tag %d", m.A0)
				}
			}
		})
		return &got
	}
	t.Run("sim", func(t *testing.T) {
		d := newTestDomain(t, Config{Ranks: 2, Conduit: SIM, SegmentBytes: 1 << 12})
		deliver := func(ep *Endpoint, tags ...uint64) {
			for _, tag := range tags {
				ep.inbox.push(Msg{Handler: HandlerUserBase, From: 0, A0: tag})
			}
		}
		got := record(d, deliver)
		ep1 := d.Endpoint(1)
		deliver(ep1, 1, 2, 3)
		ep1.Poll()
		if !slices.Equal(*got, want) {
			t.Errorf("dispatched %v, want %v", *got, want)
		}
	})
	t.Run("held", func(t *testing.T) {
		d := newTestDomain(t, Config{Ranks: 2, Conduit: SIM, SegmentBytes: 1 << 12})
		deliver := func(ep *Endpoint, tags ...uint64) {
			for _, tag := range tags {
				ep.inbox.push(Msg{Handler: HandlerUserBase, From: 0, A0: tag})
			}
		}
		got := record(d, deliver)
		ep1 := d.Endpoint(1)
		deliver(ep1, 1, 2, 3)
		if n := ep1.PollInternal(); n != 0 || len(ep1.held) != 3 {
			t.Fatalf("PollInternal applied %d and held %d messages, want 0 and 3", n, len(ep1.held))
		}
		ep1.Poll()
		if !slices.Equal(*got, want) {
			t.Errorf("dispatched %v, want %v", *got, want)
		}
	})
	t.Run("udp", func(t *testing.T) {
		d, err := newDomain(Config{
			Ranks: 2, Conduit: UDP, Fault: &FaultConfig{},
			SuspectAfter: time.Hour, DownAfter: time.Hour,
		}, func(c *net.UDPConn, _ *Domain) batchConn { return isolatedConn{seqConn{c}} })
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		var own bufArena
		var bufs []*wireBuf
		seq := uint32(0)
		deliver := func(ep *Endpoint, tags ...uint64) {
			seq++
			b := append(seqHdr(0, 1, seq, 0), frameBatch, byte(len(tags)), 0)
			for _, tag := range tags {
				enc := encodeMsg(nil, &Msg{Handler: HandlerUserBase, A0: tag})
				b = binary.LittleEndian.AppendUint32(b, uint32(len(enc)))
				b = append(b, enc...)
			}
			wb := own.get(bufClassLarge)
			wb.b = append(wb.b[:0], b...)
			bufs = append(bufs, wb)
			d.receiveDatagram(ep, wb)
		}
		got := record(d, deliver)
		ep1 := d.Endpoint(1)
		deliver(ep1, 1, 2, 3)
		ep1.Poll()
		if !slices.Equal(*got, want) {
			t.Errorf("dispatched %v, want %v", *got, want)
		}
		for i, wb := range bufs {
			if r := wb.refs.Load(); r != 0 {
				t.Errorf("frame %d buffer holds %d references after dispatch, want 0", i, r)
			}
		}
	})
}
