package gasnet

import (
	"testing"
	"time"
)

// The send rule (DESIGN.md §7.3): on the UDP conduit a wire message is
// staged at Send and leaves at its sender's next progress call, at Flush,
// at Close, or — for a sender that never calls progress — from the
// ticker's backstop.

// TestUDPSendsCoalesceUntilProgress is the GUPS-shaped case: a batch of
// 512 sends between two polls leaves as one datagram carrying all 512,
// shipped by the owner's poll, not by the ticker. The backstop may take a
// batch staged for a whole tick, so the counts are read from the first
// round that finished within one (a loaded host can stretch a round past
// it); a round that did not is only delivered. Under the race detector a
// send costs about 1.5 µs, so 512 of them take a tick on their own: the
// round shrinks to 128 there.
func TestUDPSendsCoalesceUntilProgress(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP})
	defer d.Close()
	var got []uint64
	d.RegisterHandler(HandlerUserBase, func(_ *Endpoint, m *Msg) { got = append(got, m.A0) })
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
	const maxRounds = 50
	batch := 512
	if raceEnabled {
		batch = 128
	}
	var word [8]byte

	sent, checked := 0, false
	for round := 0; round < maxRounds && !checked; round++ {
		ep0.Poll()
		before := d.Stats()
		start := time.Now()
		for i := 0; i < batch; i++ {
			ep0.Send(1, Msg{Handler: HandlerUserBase, A0: uint64(sent), Payload: word[:]})
			sent++
		}
		mid := d.Stats()
		ep0.Poll()
		took := time.Since(start)
		after := d.Stats()
		if took >= relTickInterval {
			t.Logf("round %d took %v, over one tick: not counted", round, took)
			continue
		}
		checked = true
		if n := mid.DatagramsSent - before.DatagramsSent; n != 0 {
			t.Errorf("%d datagrams left before the next progress call", n)
		}
		dgrams := after.DatagramsSent - before.DatagramsSent
		batches := after.CoalescedBatches - before.CoalescedBatches
		msgs := after.CoalescedMsgs - before.CoalescedMsgs
		if dgrams != 1 || batches != 1 || msgs != int64(batch) {
			t.Errorf("after the poll: %d datagrams, %d batches, %d messages; want 1, 1, %d",
				dgrams, batches, msgs, batch)
		}
		if n := after.TickFlushes - before.TickFlushes; n != 0 {
			t.Errorf("TickFlushes = %d: the ticker shipped a batch its owner was about to", n)
		}
	}
	if !checked {
		t.Fatalf("no round of %d sends finished within %v", batch, relTickInterval)
	}

	deadline := time.Now().Add(10 * time.Second)
	for len(got) < sent && time.Now().Before(deadline) {
		if ep1.Poll() == 0 {
			ep1.Park()
		}
	}
	if len(got) != sent {
		t.Fatalf("delivered %d of %d", len(got), sent)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("order broken at %d: got %d", i, v)
		}
	}
}

// TestStagedSendShipsWithoutProgress: a sender that never calls progress
// again is still delivered — the ticker ships a batch staged for a whole
// tick.
func TestStagedSendShipsWithoutProgress(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP})
	defer d.Close()
	got := 0
	d.RegisterHandler(HandlerUserBase, func(*Endpoint, *Msg) { got++ })
	ep1 := d.Endpoint(1)

	d.Endpoint(0).Send(1, Msg{Handler: HandlerUserBase})
	deadline := time.Now().Add(10 * time.Second)
	for got == 0 && time.Now().Before(deadline) {
		if ep1.Poll() == 0 {
			ep1.Park()
		}
	}
	if got != 1 {
		t.Fatalf("a staged send whose sender stopped calling progress was delivered %d times", got)
	}
	if s := d.Stats(); s.TickFlushes != 1 || s.DatagramsSent != 1 {
		t.Errorf("TickFlushes = %d, DatagramsSent = %d; want 1 and 1", s.TickFlushes, s.DatagramsSent)
	}
}

// TestCloseShipsStagedSends: Close ships what is staged before it
// announces departure, so a message sent just before Close is delivered —
// not dropped behind the goodbye that marks its sender Down. Close is the
// sender's last write — nothing retransmits after it — so the wire is
// kept clean of injected loss. (The process-world half, World.drainWire,
// which waits for the acks, is the root package's test of the same name
// and runs under loss.)
func TestCloseShipsStagedSends(t *testing.T) {
	clearNetEnv(t)
	doms := newMultiprocWorld(t, 2)
	got := 0
	doms[1].RegisterHandler(HandlerUserBase, func(_ *Endpoint, m *Msg) {
		if m.A0 == 7 {
			got++
		}
	})
	doms[0].Endpoint(0).Send(1, Msg{Handler: HandlerUserBase, A0: 7})
	doms[0].Close()
	if n := doms[0].Stats().DatagramsSent; n != 1 {
		t.Errorf("Close shipped %d datagrams, want 1", n)
	}
	ep1 := doms[1].Endpoint(1)
	deadline := time.Now().Add(10 * time.Second)
	for got == 0 && time.Now().Before(deadline) {
		if ep1.Poll() == 0 {
			ep1.Park()
		}
	}
	if got != 1 {
		t.Fatalf("message staged before Close delivered %d times, want 1", got)
	}
	// The goodbye followed the message on the same socket.
	for !ep1.PeerDown(0) && time.Now().Before(deadline) {
		ep1.Poll()
		time.Sleep(time.Millisecond)
	}
	if !ep1.PeerDown(0) {
		t.Error("the goodbye never marked rank 0 down")
	}
}
