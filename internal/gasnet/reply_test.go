package gasnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
)

// TestReplyResolutionTable walks every remote op kind through every way
// its reply can resolve, on a UDP domain (which has the liveness detector
// the two down rows need). Each row asserts the error done receives,
// whether the destination was written, PendingOps and BadCookieDrops:
//
//   - reply: done(nil), and the reply's data lands in dst;
//   - nack (bad address, or an invalid atomic op code): done(ErrBadAddress);
//   - peer down at injection, and the peer-death sweep:
//     done(ErrPeerUnreachable);
//   - a forged reply of each wrong kind ahead of the genuine one: each
//     forgery is counted in BadCookieDrops and dropped without taking the
//     slot, so the genuine reply still completes the op.
//
// Only the reply rows write dst; no failure touches it. The value-less ops
// (put, amo) complete on the cumulative reply, whose handler id is
// hPutAck; the value ops on their own reply.
func TestReplyResolutionTable(t *testing.T) {
	const word = 40 // the target word's value before the op
	ops := []struct {
		name  string
		rep   uint8
		dst   bool
		amo   bool
		start func(ep *Endpoint, off uint32, op AmoOp, dst []byte, done func(error))
	}{
		{"put", hPutAck, false, false, func(ep *Endpoint, off uint32, _ AmoOp, _ []byte, done func(error)) {
			ep.PutRemote(1, off, make([]byte, 8), nil, done)
		}},
		{"get", hGetRep, true, false, func(ep *Endpoint, off uint32, _ AmoOp, dst []byte, done func(error)) {
			ep.GetRemote(1, off, 8, dst, done)
		}},
		{"fetching-amo", hAmoRep, true, true, func(ep *Endpoint, off uint32, op AmoOp, dst []byte, done func(error)) {
			ep.AmoRemote(1, off, op, 2, 0, dst, done)
		}},
		{"amo", hPutAck, false, true, func(ep *Endpoint, off uint32, op AmoOp, _ []byte, done func(error)) {
			ep.AmoRemote(1, off, op, 2, 0, nil, done)
		}},
	}
	outcomes := []struct {
		name    string
		amoOnly bool
		wantErr error
		drops   int64
	}{
		{"reply", false, nil, 0},
		{"nack-bad-address", false, ErrBadAddress, 0},
		{"nack-bad-op", true, ErrBadAddress, 0},
		{"down-at-injection", false, ErrPeerUnreachable, 0},
		{"death-sweep", false, ErrPeerUnreachable, 0},
		{"wrong-kind", false, nil, 2},
	}
	sentinel := bytes.Repeat([]byte{0xa5}, 8)
	for _, o := range ops {
		for _, oc := range outcomes {
			if oc.amoOnly && !o.amo {
				continue
			}
			t.Run(o.name+"/"+oc.name, func(t *testing.T) {
				d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 12})
				defer d.Close()
				ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
				off, _ := d.Segment(1).Alloc(8)
				var w [8]byte
				binary.NativeEndian.PutUint64(w[:], word)
				d.Segment(1).CopyIn(off, w[:])
				var dst []byte
				if o.dst {
					dst = bytes.Clone(sentinel)
				}
				calls := 0
				var got error
				done := func(err error) { calls, got = calls+1, err }
				bye := func() { ep0.host.deliver(1, event{kind: evBye, inc: d.inc}) }

				op := AmoAdd
				switch oc.name {
				case "nack-bad-address":
					off = uint32(d.Segment(1).Size())
				case "nack-bad-op":
					op = amoOpCount
				case "down-at-injection":
					bye()
				}
				o.start(ep0, off, op, dst, done)
				switch oc.name {
				case "down-at-injection":
					if calls != 1 {
						t.Fatal("an op toward a down peer was not failed at injection")
					}
				case "death-sweep":
					// The target never polls, so no reply can come.
					bye()
					ep0.Poll()
				case "wrong-kind":
					cookie := liveCookie(t, ep0)
					for _, k := range []uint8{hPutAck, hGetRep, hAmoRep} {
						if k != o.rep {
							ep1.Send(0, Msg{Handler: k, A0: cookie, A1: 7, Payload: []byte{1}})
						}
					}
					fallthrough
				default:
					spinBoth(t, d, func() bool { return calls > 0 })
				}

				if calls != 1 || !errors.Is(got, oc.wantErr) {
					t.Errorf("done ran %d times with %v, want once with %v", calls, got, oc.wantErr)
				}
				if o.dst {
					want := sentinel
					if oc.wantErr == nil {
						want = w[:]
					}
					if !bytes.Equal(dst, want) {
						t.Errorf("dst = %x, want %x", dst, want)
					}
				}
				if n := ep0.PendingOps(); n != 0 {
					t.Errorf("PendingOps = %d, want 0", n)
				}
				if n := d.Stats().BadCookieDrops; n != oc.drops {
					t.Errorf("BadCookieDrops = %d, want %d", n, oc.drops)
				}
			})
		}
	}
}

// liveCookie returns what the reply to ep's one outstanding operation
// carries in A0: a value op's cookie, or a value-less op's sequence
// number.
func liveCookie(t *testing.T, ep *Endpoint) uint64 {
	t.Helper()
	for id, s := range ep.ops.slots {
		if s.done != nil {
			return uint64(id)
		}
	}
	if c := ep.cum; c != nil {
		for _, q := range c.out {
			for seq := q.head; seq < q.tail; seq++ {
				if q.ring[seq&uint64(len(q.ring)-1)].done != nil {
					return seq
				}
			}
		}
	}
	t.Fatal("no outstanding operation")
	return 0
}

// TestCumulativeReplyResolution walks the ways a run of value-less ops
// resolves that a single op cannot show. Rank 1 never polls, so every
// reply is one the test hands rank 0's hPutAck handler: a nack (A3 set)
// fails its own entry, a cumulative reply completes every unresolved
// entry through its sequence number, in order, and anything outside the
// queue is counted in BadCookieDrops and completes nothing.
func TestCumulativeReplyResolution(t *testing.T) {
	type outcome struct {
		calls int
		err   error
	}
	// world starts n value-less ops from rank 0 to rank 1 (puts and adds,
	// alternating) and returns the domain, an op's record by index, the
	// order ops completed in, and reply, which hands rank 0 the reply
	// (seq, status) from rank 1.
	world := func(t *testing.T, n int) (*Domain, []outcome, *[]int, func(seq uint64, status uint64)) {
		d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 12})
		t.Cleanup(func() { d.Close() })
		ep0 := d.Endpoint(0)
		res := make([]outcome, n+2)
		var order []int
		for i := range n {
			done := func(err error) {
				res[i].calls++
				res[i].err = err
				order = append(order, i)
			}
			if i%2 == 0 {
				ep0.PutRemote(1, 0, make([]byte, 8), nil, done)
			} else {
				ep0.AmoRemote(1, 8, AmoAdd, 1, 0, nil, done)
			}
		}
		reply := func(seq, status uint64) {
			ep0.dispatch(&Msg{Handler: hPutAck, From: 1, A0: seq, A3: status})
		}
		return d, res[:n], &order, reply
	}
	// check asserts that the ops in wantOrder completed in that order, each
	// once with want[i] (nil when absent), that no other op completed, and
	// PendingOps and BadCookieDrops.
	check := func(t *testing.T, d *Domain, res []outcome, order []int, want map[int]error, wantOrder []int, pending int, drops int64) {
		t.Helper()
		for i, r := range res {
			if !slices.Contains(wantOrder, i) {
				if r.calls != 0 {
					t.Errorf("op %d: done ran %d times, want still pending", i, r.calls)
				}
				continue
			}
			if r.calls != 1 || !errors.Is(r.err, want[i]) {
				t.Errorf("op %d: done ran %d times with %v, want once with %v", i, r.calls, r.err, want[i])
			}
		}
		if !slices.Equal(order, wantOrder) {
			t.Errorf("completion order %v, want %v", order, wantOrder)
		}
		if n := d.Endpoint(0).PendingOps(); n != pending {
			t.Errorf("PendingOps = %d, want %d", n, pending)
		}
		if n := d.Stats().BadCookieDrops; n != drops {
			t.Errorf("BadCookieDrops = %d, want %d", n, drops)
		}
	}
	// Sequence numbers start at 1: op i carries i+1.

	t.Run("nack-mid-run", func(t *testing.T) {
		d, res, order, reply := world(t, 5)
		reply(3, ackBadAddr)
		reply(5, 0)
		check(t, d, res, *order, map[int]error{2: ErrBadAddress}, []int{2, 0, 1, 3, 4}, 0, 0)
	})
	t.Run("cumulative-covers-nack", func(t *testing.T) {
		// The cumulative reply names the nacked entry itself, then a
		// second nack for it arrives: it fails once, and the second nack
		// is counted.
		d, res, order, reply := world(t, 5)
		reply(3, ackBadAddr)
		reply(3, 0)
		reply(3, ackBadAddr)
		reply(5, 0)
		check(t, d, res, *order, map[int]error{2: ErrBadAddress}, []int{2, 0, 1, 3, 4}, 0, 1)
	})
	t.Run("stale-and-forged", func(t *testing.T) {
		d, res, order, reply := world(t, 3)
		reply(2, 0)
		reply(1, 0) // below head
		reply(4, 0) // at the tail: never assigned
		reply(1<<40, ackBadAddr)
		check(t, d, res, *order, nil, []int{0, 1}, 1, 3)
		reply(3, 0)
		check(t, d, res, *order, nil, []int{0, 1, 2}, 0, 3)
	})
	t.Run("death-sweep-readmission-stale", func(t *testing.T) {
		d, res, order, reply := world(t, 3)
		ep0 := d.Endpoint(0)
		reply(1, 0)
		ep0.host.deliver(1, event{kind: evBye, inc: d.inc})
		ep0.Poll()
		ep0.host.deliver(1, event{kind: evJoin, inc: d.inc + 1})
		if ep0.PeerDown(1) {
			t.Fatal("rank 1 not readmitted")
		}
		// Two ops toward the readmitted incarnation, then the dead one's
		// reply to the swept ops: below head, counted, completes nothing.
		var after []error
		for range 2 {
			ep0.PutRemote(1, 0, make([]byte, 8), nil, func(err error) { after = append(after, err) })
		}
		reply(3, 0)
		reply(2, ackBadAddr)
		if len(after) != 0 {
			t.Fatalf("a stale reply completed %d ops registered after readmission", len(after))
		}
		check(t, d, res, *order, map[int]error{1: ErrPeerUnreachable, 2: ErrPeerUnreachable}, []int{0, 1, 2}, 2, 2)
		reply(5, 0)
		if len(after) != 2 || after[0] != nil || after[1] != nil {
			t.Errorf("ops after readmission resolved with %v, want two nil", after)
		}
		if n := ep0.PendingOps(); n != 0 {
			t.Errorf("PendingOps = %d, want 0", n)
		}
	})
}
