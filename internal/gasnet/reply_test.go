package gasnet

import (
	"bytes"
	"encoding/binary"
	"errors"
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
// Only the reply rows write dst; no failure touches it.
func TestReplyResolutionTable(t *testing.T) {
	const word = 40 // the target word's value before the op
	ops := []struct {
		name  string
		rep   uint8
		dst   bool
		start func(ep *Endpoint, off uint32, op AmoOp, dst []byte, done func(error))
	}{
		{"put", hPutAck, false, func(ep *Endpoint, off uint32, _ AmoOp, _ []byte, done func(error)) {
			ep.PutRemote(1, off, make([]byte, 8), nil, done)
		}},
		{"get", hGetRep, true, func(ep *Endpoint, off uint32, _ AmoOp, dst []byte, done func(error)) {
			ep.GetRemote(1, off, 8, dst, done)
		}},
		{"fetching-amo", hAmoRep, true, func(ep *Endpoint, off uint32, op AmoOp, dst []byte, done func(error)) {
			ep.AmoRemote(1, off, op, 2, 0, dst, done)
		}},
		{"amo", hAmoRep, false, func(ep *Endpoint, off uint32, op AmoOp, _ []byte, done func(error)) {
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
			if oc.amoOnly && o.rep != hAmoRep {
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

// liveCookie returns the cookie of ep's one outstanding operation.
func liveCookie(t *testing.T, ep *Endpoint) uint64 {
	t.Helper()
	for id, s := range ep.ops.slots {
		if s.done != nil {
			return uint64(id)
		}
	}
	t.Fatal("no outstanding operation")
	return 0
}
