package gasnet

import (
	"fmt"
	"testing"
	"time"
)

// Where a transport ack leaves (DESIGN.md §8.2, reliable.go's ack levels):
// a frame that carried only replies is acked lazily — on the rank's next
// frame to the sender, or at its next Idle — and every other frame by the
// end of the Poll that dispatched it; a gap is answered by the reader at
// once.

// The handler ids of the ack-placement world: a one-way message (how a
// collective token or a user message looks to the substrate), a request
// its target answers with a registered reply, and that reply.
const (
	ackOneWay = HandlerUserBase + iota
	ackReq
	ackRep
)

// ackWorld is one row's world: two in-process UDP ranks, both driven from
// the test goroutine.
type ackWorld struct {
	d        *Domain
	ep0, ep1 *Endpoint
	word     [8]byte
	oneWay   int         // ackOneWay messages rank 0 dispatched
	onRep    func(error) // what rank 0's next ackRep completes
}

func newAckWorld(t *testing.T) *ackWorld {
	t.Helper()
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 12})
	w := &ackWorld{d: d, ep0: d.Endpoint(0), ep1: d.Endpoint(1)}
	d.RegisterHandler(ackOneWay, func(ep *Endpoint, _ *Msg) {
		if ep.Rank() == 0 {
			w.oneWay++
		}
	})
	// A request answers with the registered reply, and with a one-way
	// message in the same frame when A1 asks for it.
	d.RegisterHandler(ackReq, func(ep *Endpoint, m *Msg) {
		ep.Send(int(m.From), Msg{Handler: ackRep})
		if m.A1 != 0 {
			ep.Send(int(m.From), Msg{Handler: ackOneWay})
		}
	})
	d.RegisterReplyHandler(ackRep, func(*Endpoint, *Msg) { w.onRep(nil) })
	return w
}

// dispatch waits until ep's reader has delivered frame seq from rank from
// — read under the peer lock, so the delivery, and the ack hint it raised,
// are complete — and then polls ep once: the Poll that dispatches it. The
// wait parks rather than spins, so under GOMAXPROCS(1) the socket readers
// get to run.
func (w *ackWorld) dispatch(t *testing.T, ep *Endpoint, from int, seq uint32) {
	t.Helper()
	p := w.d.peer(ep.Rank(), from)
	for deadline := time.Now().Add(10 * time.Second); ; ep.Park() {
		p.mu.Lock()
		cum := p.cumSeq
		p.mu.Unlock()
		if cum >= seq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank %d: frame %d from rank %d never arrived", ep.Rank(), seq, from)
		}
	}
	if ep.Poll() == 0 {
		t.Fatalf("rank %d: the Poll after frame %d dispatched nothing", ep.Rank(), seq)
	}
}

// pending reports whether rank local owes peer an ack.
func (w *ackWorld) pending(local, peer int) bool {
	p := w.d.peer(local, peer)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ackPending
}

// ackDelta is the ack counters' change between two snapshots.
type ackDelta struct{ standalone, piggybacked, sack int64 }

func deltaOf(before, after Stats) ackDelta {
	return ackDelta{
		standalone:  after.AcksStandalone - before.AcksStandalone,
		piggybacked: after.AcksPiggybacked - before.AcksPiggybacked,
		sack:        after.SackAcks - before.SackAcks,
	}
}

// counted runs round until one finishes within relAckDelayMin — the
// shortest pacing deadline, so the ticker cannot have shipped the ack the
// round is about — and reports that round's failures. A slower round (a
// loaded host) is logged and not counted.
func counted(t *testing.T, round func(w *ackWorld) (time.Duration, []string)) {
	t.Helper()
	const maxRounds = 50
	for i := 0; i < maxRounds; i++ {
		w := newAckWorld(t)
		took, errs := round(w)
		w.d.Close()
		if took >= time.Duration(relAckDelayMin) {
			t.Logf("round %d took %v, over %v: not counted", i, took, time.Duration(relAckDelayMin))
			continue
		}
		for _, e := range errs {
			t.Error(e)
		}
		return
	}
	t.Fatalf("no round finished within %v", time.Duration(relAckDelayMin))
}

func TestAckPlacement(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector a round trip outlasts the pacing deadline the counts rely on")
	}
	clearNetEnv(t)

	// Reply-only frames: rank 0 starts one op; rank 1's reply carries the
	// request's ack; the reply's own ack stays pending through the Poll
	// that completed the op, and leaves on rank 0's next frame or at its
	// next Idle.
	replies := []struct {
		name  string
		start func(w *ackWorld, done func(error))
	}{
		{"cumulative reply", func(w *ackWorld, done func(error)) { w.ep0.PutRemote(1, 0, w.word[:], nil, done) }},
		{"hGetRep", func(w *ackWorld, done func(error)) { w.ep0.GetRemote(1, 0, 8, w.word[:], done) }},
		{"hAmoRep", func(w *ackWorld, done func(error)) { w.ep0.AmoRemote(1, 0, AmoAdd, 1, 0, w.word[:], done) }},
		{"registered reply", func(w *ackWorld, done func(error)) {
			w.onRep = done
			w.ep0.Send(1, Msg{Handler: ackReq})
		}},
	}
	for _, r := range replies {
		for _, idle := range []bool{false, true} {
			name := r.name + "/next-send"
			if idle {
				name = r.name + "/next-Idle"
			}
			t.Run(name, func(t *testing.T) {
				counted(t, func(w *ackWorld) (time.Duration, []string) {
					return replyRound(t, w, r.start, idle)
				})
			})
		}
	}

	// Every other frame is acked by the end of the Poll that dispatched it.
	t.Run("one-way message", func(t *testing.T) {
		counted(t, func(w *ackWorld) (time.Duration, []string) {
			start, s0 := time.Now(), w.d.Stats()
			w.ep1.Send(0, Msg{Handler: ackOneWay})
			w.ep1.Flush()
			w.dispatch(t, w.ep0, 1, 1)
			took := time.Since(start)
			var errs []string
			if d := deltaOf(s0, w.d.Stats()); d.standalone != 1 || d.piggybacked != 0 {
				errs = append(errs, fmt.Sprintf("one-way frame: %+v by the end of its Poll, want 1 standalone", d))
			}
			if w.pending(0, 1) {
				errs = append(errs, "one-way frame: ack still pending after its Poll")
			}
			return took, errs
		})
	})
	t.Run("mixed frame", func(t *testing.T) {
		counted(t, func(w *ackWorld) (time.Duration, []string) {
			replied := false
			w.onRep = func(error) { replied = true }
			start, s0 := time.Now(), w.d.Stats()
			w.ep0.Send(1, Msg{Handler: ackReq, A1: 1})
			w.ep0.Flush()
			w.dispatch(t, w.ep1, 0, 1)
			s1 := w.d.Stats()
			w.dispatch(t, w.ep0, 1, 1)
			took := time.Since(start)
			var errs []string
			if !replied || w.oneWay != 1 {
				errs = append(errs, "mixed frame: one Poll did not dispatch the reply and the message")
			}
			if n := s1.DatagramsSent - s0.DatagramsSent; n != 2 {
				errs = append(errs, fmt.Sprintf("mixed frame: %d datagrams for request and answer, want 2", n))
			}
			if d := deltaOf(s1, w.d.Stats()); d.standalone != 1 {
				errs = append(errs, fmt.Sprintf("reply and one-way message in one frame: %+v by the end of its Poll, want 1 standalone", d))
			}
			if w.pending(0, 1) {
				errs = append(errs, "mixed frame: ack still pending after its Poll")
			}
			return took, errs
		})
	})
	t.Run("reply-only then one-way", func(t *testing.T) {
		// A one-way frame arriving while a reply's lazy ack is pending
		// makes it urgent: the Poll that dispatches both ships it.
		counted(t, func(w *ackWorld) (time.Duration, []string) {
			replied := false
			w.onRep = func(error) { replied = true }
			start := time.Now()
			w.ep0.Send(1, Msg{Handler: ackReq})
			w.ep0.Flush()
			w.dispatch(t, w.ep1, 0, 1)
			w.ep1.Send(0, Msg{Handler: ackOneWay})
			w.ep1.Flush()
			s1 := w.d.Stats()
			w.dispatch(t, w.ep0, 1, 2) // both frames, in one Poll
			took := time.Since(start)
			var errs []string
			if !replied || w.oneWay != 1 {
				errs = append(errs, "one Poll did not dispatch both frames")
			}
			if d := deltaOf(s1, w.d.Stats()); d.standalone != 1 {
				errs = append(errs, fmt.Sprintf("reply-only frame, then a one-way frame: %+v by the end of their Poll, want 1 standalone", d))
			}
			if w.pending(0, 1) {
				errs = append(errs, "reply-only then one-way: ack still pending after their Poll")
			}
			return took, errs
		})
	})

	// A gap is answered by the reader at once: a standalone ack with the
	// SACK bitmap of what it parked, before any Poll.
	t.Run("gap", func(t *testing.T) {
		counted(t, func(w *ackWorld) (time.Duration, []string) {
			start, s0 := time.Now(), w.d.Stats()
			m := Msg{Handler: ackOneWay, From: 1}
			wb := w.d.arena.get(bufClassLarge)
			wb.b = appendMsg(append(append(wb.b[:0], seqHdr(1, w.d.inc, 2, 0)...), frameSingle), &m)
			w.d.receiveDatagram(w.ep0, wb) // seq 2 before seq 1
			took := time.Since(start)
			var errs []string
			if d := deltaOf(s0, w.d.Stats()); d.standalone != 1 || d.sack != 1 {
				errs = append(errs, fmt.Sprintf("gap: %+v at the reader, want 1 standalone with a SACK", d))
			}
			return took, errs
		})
	})
}

// replyRound is one reply-only row: the op's round trip, then rank 0's
// next frame to rank 1 (idle false) or its next Idle.
func replyRound(t *testing.T, w *ackWorld, start func(*ackWorld, func(error)), idle bool) (time.Duration, []string) {
	var errs []string
	fail := func(format string, a ...any) { errs = append(errs, fmt.Sprintf(format, a...)) }
	done := false
	t0, s0 := time.Now(), w.d.Stats()
	start(w, func(err error) {
		if err != nil {
			t.Errorf("op failed: %v", err)
		}
		done = true
	})
	w.ep0.Flush()
	w.dispatch(t, w.ep1, 0, 1)
	if d := deltaOf(s0, w.d.Stats()); d.piggybacked != 1 || d.standalone != 0 {
		fail("the request's ack: %+v by the end of the target's Poll, want 1 piggybacked on the reply", d)
	}
	if w.pending(1, 0) {
		fail("the target still owes the request's ack after its Poll")
	}
	w.dispatch(t, w.ep0, 1, 1)
	if !done {
		fail("the Poll that dispatched the reply did not complete the op")
	}
	s1 := w.d.Stats()
	if d := deltaOf(s0, s1); d.standalone != 0 {
		fail("reply-only frame: %d standalone acks by the end of the Poll that dispatched it, want 0", d.standalone)
	}
	if !w.pending(0, 1) {
		fail("reply-only frame: no ack pending after the Poll that dispatched it")
	}
	var took time.Duration
	if idle {
		took = time.Since(t0)
		w.ep0.Idle()
		if d := deltaOf(s1, w.d.Stats()); d.standalone != 1 || d.piggybacked != 0 {
			fail("reply-only frame, then Idle: %+v, want 1 standalone", d)
		}
	} else {
		w.ep0.Send(1, Msg{Handler: ackOneWay})
		w.ep0.Flush()
		took = time.Since(t0)
		if d := deltaOf(s1, w.d.Stats()); d.standalone != 0 || d.piggybacked != 1 {
			fail("reply-only frame, then a send: %+v, want 1 piggybacked", d)
		}
	}
	if w.pending(0, 1) {
		fail("the reply's ack still pending after it left")
	}
	return took, errs
}
