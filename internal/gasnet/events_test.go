package gasnet

import (
	"errors"
	"testing"
	"time"

	"gupcxx/internal/obs"
)

// drainEvents polls sub until no new events arrive, returning everything
// collected so far appended to acc.
func drainEvents(sub *obs.Subscription, acc []obs.Event) []obs.Event {
	return sub.Poll(acc)
}

// waitForEvent polls sub until an event of kind k shows up or the
// deadline passes, returning the accumulated events and whether k was
// seen.
func waitForEvent(sub *obs.Subscription, k obs.EventKind, acc []obs.Event) ([]obs.Event, bool) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		acc = drainEvents(sub, acc)
		for _, ev := range acc {
			if ev.Kind == k {
				return acc, true
			}
		}
		time.Sleep(time.Millisecond)
	}
	return acc, false
}

func hasEvent(evs []obs.Event, k obs.EventKind) bool {
	for _, ev := range evs {
		if ev.Kind == k {
			return true
		}
	}
	return false
}

// TestLivenessEvents drives the failure detector's full state walk —
// Alive→Suspect→Alive (recovery) and Alive→Suspect→Down — and asserts
// every transition shows up on the bus exactly as an edge: lifecycle
// events delivered straight to the applier, so the event payloads can be
// pinned precisely.
func TestLivenessEvents(t *testing.T) {
	bus := obs.NewBus(0)
	sub := bus.Subscribe()
	defer sub.Close()
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP, Events: bus})
	defer d.Close()

	if got := d.LivenessState(0, 1); got != "alive" {
		t.Fatalf("initial LivenessState(0,1) = %q, want alive", got)
	}
	if got := d.LivenessState(0, 0); got != "self" {
		t.Fatalf("LivenessState(0,0) = %q, want self", got)
	}

	// Alive→Suspect: one event; a second shed burst is a no-op.
	h0 := d.eps[0].host
	h0.deliver(1, event{kind: evShedBurst})
	h0.deliver(1, event{kind: evShedBurst})
	if got := d.LivenessState(0, 1); got != "suspect" {
		t.Fatalf("LivenessState(0,1) after a shed burst = %q, want suspect", got)
	}
	evs, ok := waitForEvent(sub, obs.EvPeerSuspect, nil)
	if !ok {
		t.Fatal("no peer-suspect event")
	}
	suspects := 0
	for _, ev := range evs {
		if ev.Kind == obs.EvPeerSuspect {
			suspects++
			if ev.Rank != 0 || ev.Peer != 1 {
				t.Errorf("suspect event rank/peer = %d/%d, want 0/1", ev.Rank, ev.Peer)
			}
		}
	}
	if suspects != 1 {
		t.Errorf("%d suspect events for one transition, want 1", suspects)
	}

	// Suspect→Alive on hearing from the peer.
	h0.deliver(1, event{kind: evHeartbeat, inc: d.inc})
	if got := d.LivenessState(0, 1); got != "alive" {
		t.Fatalf("LivenessState(0,1) after heard = %q, want alive", got)
	}
	if evs, ok = waitForEvent(sub, obs.EvPeerRecovered, evs); !ok {
		t.Fatal("no peer-recovered event")
	}

	// Down is terminal and emits once.
	h0.deliver(1, event{kind: evBye, inc: d.inc})
	h0.deliver(1, event{kind: evBye, inc: d.inc})
	if got := d.LivenessState(0, 1); got != "down" {
		t.Fatalf("LivenessState(0,1) after a goodbye = %q, want down", got)
	}
	if evs, ok = waitForEvent(sub, obs.EvPeerDown, evs); !ok {
		t.Fatal("no peer-down event")
	}
	downs := 0
	for _, ev := range evs {
		if ev.Kind == obs.EvPeerDown {
			downs++
		}
	}
	if downs != 1 {
		t.Errorf("%d down events for one transition, want 1", downs)
	}
}

// TestBackpressureEvents pins the edge semantics: the first refused
// admission emits backpressure-on, repeats are silent, and the first
// admission that goes through afterwards emits backpressure-off.
func TestBackpressureEvents(t *testing.T) {
	bus := obs.NewBus(0)
	sub := bus.Subscribe()
	defer sub.Close()
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP, Events: bus,
		Backpressure: BackpressureFailFast,
	})
	defer d.Close()

	r := d.rel
	p := d.peer(0, 1)

	// Choke the window to zero: every admission refuses.
	p.mu.Lock()
	savedCwnd := p.cwnd
	p.cwnd = 0
	p.mu.Unlock()

	for i := 0; i < 3; i++ {
		if err := r.admit(0, 1, 0); !errors.Is(err, ErrBackpressure) {
			t.Fatalf("admit under zero window = %v, want ErrBackpressure", err)
		}
	}
	evs := drainEvents(sub, nil)
	on := 0
	for _, ev := range evs {
		if ev.Kind == obs.EvBackpressureOn {
			on++
			if ev.Rank != 0 || ev.Peer != 1 {
				t.Errorf("onset event rank/peer = %d/%d, want 0/1", ev.Rank, ev.Peer)
			}
			if ev.B != 0 {
				t.Errorf("onset event window = %d, want 0", ev.B)
			}
		}
	}
	if on != 1 {
		t.Fatalf("%d backpressure-on events for 3 refusals, want 1", on)
	}
	if hasEvent(evs, obs.EvBackpressureOff) {
		t.Fatal("relief event while still choked")
	}

	// Restore the window: the next admission succeeds and emits relief.
	p.mu.Lock()
	p.cwnd = savedCwnd
	p.mu.Unlock()
	if err := r.admit(0, 1, 0); err != nil {
		t.Fatalf("admit after restore = %v, want nil", err)
	}
	if err := r.admit(0, 1, 0); err != nil {
		t.Fatalf("second admit after restore = %v, want nil", err)
	}
	evs = drainEvents(sub, evs[:0])
	off := 0
	for _, ev := range evs {
		if ev.Kind == obs.EvBackpressureOff {
			off++
		}
	}
	if off != 1 {
		t.Fatalf("%d backpressure-off events for one relief, want 1", off)
	}
}

// TestWindowShrinkAndExhaustionEvents: under total loss the AIMD window
// halves (shrink event) and the retransmission budget then runs out
// (exhaustion event, then peer-down) — the real datapath, end to end.
func TestWindowShrinkAndExhaustionEvents(t *testing.T) {
	bus := obs.NewBus(0)
	sub := bus.Subscribe()
	defer sub.Close()
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 12, Events: bus,
		Fault:          &FaultConfig{Seed: 1, Drop: 1.0},
		RelMaxAttempts: 3,
	})
	defer d.Close()
	ep0 := d.Endpoint(0)

	var gotErr error
	ep0.PutRemote(1, 0, []byte{1, 2, 3, 4}, nil, func(err error) { gotErr = err })
	deadline := time.Now().Add(10 * time.Second)
	for gotErr == nil && time.Now().Before(deadline) {
		ep0.Poll()
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(gotErr, ErrPeerUnreachable) {
		t.Fatalf("put resolved with %v, want ErrPeerUnreachable", gotErr)
	}

	evs, ok := waitForEvent(sub, obs.EvRetransmitExhausted, nil)
	if !ok {
		t.Fatal("no retransmit-exhausted event")
	}
	if !hasEvent(evs, obs.EvWindowShrink) {
		t.Error("no window-shrink event despite RTO expirations")
	}
	if evs, ok = waitForEvent(sub, obs.EvPeerDown, evs); !ok {
		t.Fatal("no peer-down event after exhaustion")
	}
	for _, ev := range evs {
		if ev.Kind == obs.EvWindowShrink && ev.B > ev.A {
			t.Errorf("shrink event grew the window: %d -> %d", ev.A, ev.B)
		}
	}
}

// TestWindowGrowEvent: a clean RTT sample that brings the congestion
// window back to the configured ceiling emits exactly one recovery
// event.
func TestWindowGrowEvent(t *testing.T) {
	bus := obs.NewBus(0)
	sub := bus.Subscribe()
	defer sub.Close()
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 12, Events: bus})
	defer d.Close()

	// Pull the window one below the ceiling so the next clean ack crosses
	// the recovery boundary — and the RTO to its ceiling, so a scheduling
	// stall under the race detector cannot expire the 5 ms initial RTO
	// first (an expiry halves the window and the sample is no longer
	// clean: the test failed ~3 % of -race runs that way).
	p := d.peer(0, 1)
	p.mu.Lock()
	p.cwnd = d.cfg.RelWindow - 1
	p.rto = relRTOMax
	p.mu.Unlock()

	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
	done := false
	ep0.PutRemote(1, 0, []byte{1, 2, 3, 4}, nil, func(err error) {
		if err != nil {
			t.Errorf("put failed: %v", err)
		}
		done = true
	})
	deadline := time.Now().Add(10 * time.Second)
	for !done && time.Now().Before(deadline) {
		ep1.Poll()
		ep0.Poll()
		time.Sleep(100 * time.Microsecond)
	}
	if !done {
		t.Fatal("put never completed")
	}
	evs, ok := waitForEvent(sub, obs.EvWindowGrow, nil)
	if !ok {
		t.Fatal("no window-grow event after recovery to the ceiling")
	}
	for _, ev := range evs {
		if ev.Kind == obs.EvWindowGrow && ev.A != int64(d.cfg.RelWindow) {
			t.Errorf("grow event ceiling = %d, want %d", ev.A, d.cfg.RelWindow)
		}
	}
}

// TestFlowStateOccupancy pins the extended FlowState fields: the reorder
// budget is always reported, and a retransmission queue holding unacked
// datagrams shows non-zero byte occupancy.
func TestFlowStateOccupancy(t *testing.T) {
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 12,
		Fault: &FaultConfig{Seed: 1, Drop: 1.0}, // nothing acks: queue stays full
	})
	defer d.Close()

	fs := d.FlowState(0, 1)
	if fs.ReorderBudget <= 0 {
		t.Errorf("ReorderBudget = %d, want > 0", fs.ReorderBudget)
	}
	if fs.InFlightBytes != 0 || fs.ReorderBytes != 0 {
		t.Errorf("idle pair reports occupancy: inflight=%dB reorder=%dB", fs.InFlightBytes, fs.ReorderBytes)
	}

	d.Endpoint(0).PutRemote(1, 0, []byte{1, 2, 3, 4}, nil, func(error) {})
	d.Endpoint(0).Flush()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		fs = d.FlowState(0, 1)
		if fs.InFlightBytes > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if fs.InFlight == 0 || fs.InFlightBytes == 0 {
		t.Errorf("unacked put not visible: InFlight=%d InFlightBytes=%d", fs.InFlight, fs.InFlightBytes)
	}
	if fs.InFlightBytes < relHeaderLen {
		t.Errorf("InFlightBytes = %d, smaller than the frame header", fs.InFlightBytes)
	}
	// Zero-flow queries stay zero-valued.
	if z := d.FlowState(0, 0); z != (FlowState{}) {
		t.Errorf("self FlowState = %+v, want zero", z)
	}
}
