package gasnet

import (
	"errors"
	"testing"
	"time"
)

// TestRTTSampleEstimator pins the Jacobson/Karels update rules and the
// clamps on the derived RTO and standalone-ack delay.
func TestRTTSampleEstimator(t *testing.T) {
	p := &peer{}

	// First sample initializes srtt = rtt, rttvar = rtt/2, RTO = srtt+4var.
	rtt := int64(8 * time.Millisecond)
	p.sampleRTT(rtt)
	if p.srtt != rtt || p.rttvar != rtt/2 {
		t.Errorf("first sample: srtt=%v rttvar=%v", p.srtt, p.rttvar)
	}
	if want := rtt + 4*(rtt/2); p.rto != want {
		t.Errorf("first RTO = %v, want %v", time.Duration(p.rto), time.Duration(want))
	}

	// A steady stream of identical samples decays rttvar, so the RTO
	// converges down toward srtt (never below the floor).
	for i := 0; i < 64; i++ {
		p.sampleRTT(rtt)
	}
	if p.srtt != rtt {
		t.Errorf("converged srtt = %v, want %v", time.Duration(p.srtt), time.Duration(rtt))
	}
	if p.rto >= rtt+4*(rtt/2) || p.rto < relRTOMin {
		t.Errorf("converged RTO = %v not in (floor, first-RTO)", time.Duration(p.rto))
	}

	// A huge sample clamps the RTO to the ceiling, and the ack delay to its
	// own ceiling.
	p.sampleRTT(int64(time.Second))
	if p.rto != relRTOMax {
		t.Errorf("RTO after 1s sample = %v, want clamp %v", time.Duration(p.rto), time.Duration(relRTOMax))
	}
	if p.ackDelay != relAckDelayMax {
		t.Errorf("ackDelay = %v, want clamp %v", time.Duration(p.ackDelay), time.Duration(relAckDelayMax))
	}

	// Tiny samples clamp to the floors.
	q := &peer{}
	for i := 0; i < 8; i++ {
		q.sampleRTT(int64(10 * time.Microsecond))
	}
	if q.rto != relRTOMin {
		t.Errorf("RTO after tiny samples = %v, want floor %v", time.Duration(q.rto), time.Duration(relRTOMin))
	}
	if q.ackDelay != relAckDelayMin {
		t.Errorf("ackDelay = %v, want floor %v", time.Duration(q.ackDelay), time.Duration(relAckDelayMin))
	}

	// Non-positive samples are ignored (clock anomaly guard).
	before := q.srtt
	q.sampleRTT(0)
	q.sampleRTT(-5)
	if q.srtt != before {
		t.Error("non-positive RTT sample mutated the estimator")
	}
}

// TestFlowStateLiveTraffic: real acked traffic over loopback must feed the
// estimator — a non-zero smoothed RTT, an RTO inside the clamp band, and a
// window at the configured maximum on a clean wire.
func TestFlowStateLiveTraffic(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP})
	defer d.Close()
	delivered := 0
	d.RegisterHandler(HandlerUserBase, func(*Endpoint, *Msg) { delivered++ })
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
	const msgs = 100
	for i := 0; i < msgs; i++ {
		ep0.Send(1, Msg{Handler: HandlerUserBase, A0: uint64(i)})
	}
	deadline := time.Now().Add(10 * time.Second)
	for delivered < msgs && time.Now().Before(deadline) {
		if ep1.Poll() == 0 {
			ep1.Park()
		}
	}
	if delivered != msgs {
		t.Fatalf("delivered %d of %d", delivered, msgs)
	}
	// Acks are processed on rank 0's socket reader; give the last ones a
	// moment to land and be sampled. A slow scheduler (race detector) can
	// retransmit the whole burst before its first ack arrives, leaving no
	// Karn-clean sample — keep offering single-frame round trips until one
	// measures.
	var fs FlowState
	for i := msgs; time.Now().Before(deadline); i++ {
		fs = d.FlowState(0, 1)
		if fs.SRTT > 0 && fs.InFlight == 0 {
			break
		}
		if fs.SRTT == 0 && fs.InFlight == 0 {
			ep0.Send(1, Msg{Handler: HandlerUserBase, A0: uint64(i)})
			want := delivered + 1
			for delivered < want && time.Now().Before(deadline) {
				if ep1.Poll() == 0 {
					ep1.Park()
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	if fs.SRTT <= 0 {
		t.Fatalf("SRTT = %v after %d acked datagrams", fs.SRTT, msgs)
	}
	if fs.RTO < time.Duration(relRTOMin) || fs.RTO > time.Duration(relRTOMax) {
		t.Errorf("RTO = %v outside [%v, %v]", fs.RTO,
			time.Duration(relRTOMin), time.Duration(relRTOMax))
	}
	// A slow scheduler (the race detector, a loaded CI box) can expire an
	// RTO mid-burst and legitimately halve the window; only a shrink the
	// counters can't account for is a bug.
	if shrinks := d.rtoExpirations.Load(); shrinks == 0 && fs.Window != relWindow {
		t.Errorf("clean-wire window = %d with no RTO expirations, want the maximum %d",
			fs.Window, relWindow)
	} else if fs.Window < relWindowMin || fs.Window > relWindow {
		t.Errorf("window = %d outside [%d, %d]", fs.Window, relWindowMin, relWindow)
	}
	// Self and conduit-less queries return the zero snapshot.
	if got := d.FlowState(0, 0); got.SRTT != 0 || got.InFlight != 0 {
		t.Errorf("self FlowState = %+v", got)
	}
	smp := newTestDomain(t, Config{Ranks: 2, Conduit: SMP})
	if got := smp.FlowState(0, 1); got != (FlowState{}) {
		t.Errorf("SMP FlowState = %+v, want zero", got)
	}
}

// TestWindowShrinksOnLossGrowsOnRecovery: heavy loss must trip RTO
// expirations and multiplicative decrease; healing the wire must grow the
// window back. The window counters make both phases observable.
func TestWindowShrinksOnLossGrowsOnRecovery(t *testing.T) {
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP,
		RelWindow: 32, RelWindowMin: 4,
		Fault: &FaultConfig{Seed: 9, Drop: 0.4},
	})
	defer d.Close()
	delivered := 0
	d.RegisterHandler(HandlerUserBase, func(*Endpoint, *Msg) { delivered++ })
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)

	const msgs = 150
	for i := 0; i < msgs; i++ {
		ep0.Send(1, Msg{Handler: HandlerUserBase, A0: uint64(i)})
		ep0.Flush()
	}
	deadline := time.Now().Add(30 * time.Second)
	for delivered < msgs && time.Now().Before(deadline) {
		if ep1.Poll() == 0 {
			ep1.Park()
		}
	}
	if delivered != msgs {
		t.Fatalf("delivered %d of %d under loss", delivered, msgs)
	}
	s := d.Stats()
	if s.RTOExpirations == 0 {
		t.Fatal("RTOExpirations = 0 under 40% drop")
	}
	if s.WindowShrinks == 0 {
		t.Fatal("WindowShrinks = 0 despite RTO expirations")
	}
	growsAfterLoss := s.WindowGrows

	// Heal the wire and run clean traffic: every clean RTT sample below the
	// maximum grows the window by one.
	if err := d.SetFault(0, FaultConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := d.SetFault(1, FaultConfig{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		ep0.Send(1, Msg{Handler: HandlerUserBase, A0: uint64(msgs + i)})
		ep0.Flush()
		// Space sends out so each ack event carries a fresh clean sample.
		if i%8 == 7 {
			time.Sleep(2 * time.Millisecond)
		}
	}
	for delivered < msgs+64 && time.Now().Before(deadline) {
		if ep1.Poll() == 0 {
			ep1.Park()
		}
	}
	for d.Stats().WindowGrows == growsAfterLoss && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := d.Stats().WindowGrows; got == growsAfterLoss {
		t.Errorf("WindowGrows stuck at %d after the wire healed", got)
	}
	if fs := d.FlowState(0, 1); fs.Window < 4 || fs.Window > 32 {
		t.Errorf("window %d escaped [RelWindowMin, RelWindow]", fs.Window)
	}
}

// TestAdmitFailFastBackpressure: with the fail-fast policy and a full
// window, admission must refuse immediately with a *BackpressureError
// carrying the peer rank, and count the refusal.
func TestAdmitFailFastBackpressure(t *testing.T) {
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP,
		RelWindow: 4, RelWindowMin: 4,
		Backpressure: BackpressureFailFast,
		Fault:        &FaultConfig{Seed: 2, Drop: 1.0}, // nothing is ever acked
	})
	defer d.Close()
	ep0 := d.Endpoint(0)
	for i := 0; i < 4; i++ {
		if err := ep0.AdmitSend(1, 0); err != nil {
			t.Fatalf("admission refused at occupancy %d of 4: %v", i, err)
		}
		ep0.Send(1, Msg{Handler: HandlerUserBase, A0: uint64(i)})
		ep0.Flush()
	}
	start := time.Now()
	err := ep0.AdmitSend(1, 0)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("fail-fast admission took %v", elapsed)
	}
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("full-window admission = %v, want ErrBackpressure", err)
	}
	var bpe *BackpressureError
	if !errors.As(err, &bpe) || bpe.Peer != 1 {
		t.Fatalf("error %v does not carry peer 1", err)
	}
	if got := d.Stats().BackpressureFails; got == 0 {
		t.Error("BackpressureFails = 0 after a refusal")
	}
	// Self-sends and out-of-range targets bypass admission entirely.
	if err := ep0.AdmitSend(0, 0); err != nil {
		t.Errorf("self admission = %v", err)
	}
	if err := ep0.AdmitSend(-1, 0); err != nil {
		t.Errorf("out-of-range admission = %v", err)
	}
}

// TestAdmitBoundedBlockTimesOut: under the default blocking policy a full
// window parks the admitter for the configured bound (or the caller's own
// smaller budget), then refuses — never an unbounded wedge.
func TestAdmitBoundedBlockTimesOut(t *testing.T) {
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP,
		RelWindow: 4, RelWindowMin: 4,
		BackpressureWait: 80 * time.Millisecond,
		Fault:            &FaultConfig{Seed: 3, Drop: 1.0},
	})
	defer d.Close()
	ep0 := d.Endpoint(0)
	for i := 0; i < 4; i++ {
		ep0.Send(1, Msg{Handler: HandlerUserBase, A0: uint64(i)})
		ep0.Flush()
	}

	start := time.Now()
	err := ep0.AdmitSend(1, 0)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("blocked admission resolved %v, want ErrBackpressure", err)
	}
	if elapsed < 60*time.Millisecond {
		t.Errorf("block lasted %v, want about the 80ms policy bound", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Errorf("block lasted %v, far past the bound", elapsed)
	}

	// A caller deadline below the policy bound wins.
	start = time.Now()
	err = ep0.AdmitSend(1, 10*time.Millisecond)
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("deadline-bounded admission resolved %v", err)
	}
	if elapsed := time.Since(start); elapsed > 60*time.Millisecond {
		t.Errorf("10ms caller budget blocked for %v", elapsed)
	}
}

// TestWindowBlockedSendWakesOnPeerDown is the regression for the
// window-block liveness hazard: a sender blocked on a full window toward a
// peer that then gets declared down must wake promptly (the queue is
// drained, the slot freed) rather than wedging forever, and the pending
// operations must resolve with ErrPeerUnreachable.
func TestWindowBlockedSendWakesOnPeerDown(t *testing.T) {
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 12,
		RelWindow: 4, RelWindowMin: 4,
		RelMaxAttempts: 3,
		Fault:          &FaultConfig{Seed: 4, Drop: 1.0}, // the peer is dead from the start
	})
	defer d.Close()
	ep0 := d.Endpoint(0)

	// Fill the window: three fire-and-forget frames plus one tracked put
	// whose completion callback observes the failure.
	var gotErr error
	for i := 0; i < 3; i++ {
		ep0.Send(1, Msg{Handler: HandlerUserBase, A0: uint64(i)})
		ep0.Flush()
	}
	ep0.PutRemote(1, 0, []byte{1, 2, 3, 4}, nil, func(err error) { gotErr = err })
	ep0.Flush()

	unblocked := make(chan struct{})
	go func() {
		ep0.Send(1, Msg{Handler: HandlerUserBase, A0: 99})
		ep0.Flush() // blocks: window full
		close(unblocked)
	}()
	// The send must stay blocked while the peer is merely slow...
	select {
	case <-unblocked:
		t.Fatal("send past a full window did not block")
	case <-time.After(5 * time.Millisecond):
	}
	// ...and wake once retransmission exhaustion declares the peer down.
	select {
	case <-unblocked:
	case <-time.After(30 * time.Second):
		t.Fatal("window-blocked sender wedged after the peer was declared down")
	}
	if !ep0.PeerDown(1) {
		t.Error("peer 1 not marked down after exhaustion")
	}
	deadline := time.Now().Add(10 * time.Second)
	for gotErr == nil && time.Now().Before(deadline) {
		ep0.Poll()
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(gotErr, ErrPeerUnreachable) {
		t.Errorf("pending put resolved %v, want ErrPeerUnreachable", gotErr)
	}
	// Admission toward the dead peer now refuses eagerly.
	if err := ep0.AdmitSend(1, 0); !errors.Is(err, ErrPeerUnreachable) {
		t.Errorf("post-down admission = %v, want ErrPeerUnreachable", err)
	}
	// A silence-driven death parks the pair for a possible heal
	// (DESIGN.md §16): the in-flight frames are retained — with their
	// sequence numbers — rather than drained. What matters for liveness is
	// asserted above: the blocked sender woke and admission refuses; the
	// parked frames hold no one hostage.
	if fs := d.FlowState(0, 1); fs.InFlight != 4 {
		t.Errorf("parked pair holds %d frames, want all 4 retained for a heal", fs.InFlight)
	}
}

// forgeSeqFrame hand-crafts a sequenced data frame from rank 0 carrying
// one user message, exactly as the wire would deliver it.
func forgeSeqFrame(d *Domain, seq uint32, payload []byte) *wireBuf {
	m := Msg{Handler: HandlerUserBase, A0: uint64(seq), Payload: payload}
	wb := d.arena.get(bufClassLarge)
	wire := append(wb.b[:relHeaderLen], frameSingle)
	wire = appendMsg(wire, &m)
	wb.b = wire
	wb.b[0] = frameSeq
	wb.b[1], wb.b[2] = 0, 0  // from rank 0
	putU32(wb.b[3:7], d.inc) // live incarnation: the stale filter must pass it
	putU32(wb.b[7:11], seq)
	putU32(wb.b[11:15], 0)
	return wb
}

// TestReorderShedBudget: parked out-of-order frames are bounded by the
// byte budget — overflow sheds the frame furthest from delivery, the
// budget invariant holds throughout, and in-order recovery still drains
// the surviving contiguous prefix.
func TestReorderShedBudget(t *testing.T) {
	const budget = 600
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP,
		RelReorderBytes: budget,
	})
	defer d.Close()
	var got []uint64
	d.RegisterHandler(HandlerUserBase, func(_ *Endpoint, m *Msg) { got = append(got, m.A0) })
	ep1 := d.Endpoint(1)

	// Inject seqs 2..12 (seq 1 missing, so everything parks) with payloads
	// large enough that the budget holds only a handful of frames.
	payload := make([]byte, 100)
	for seq := uint32(2); seq <= 12; seq++ {
		d.receiveDatagram(ep1, forgeSeqFrame(d, seq, payload))
		p := d.peer(1, 0)
		p.mu.Lock()
		over := p.parkedBytes > budget
		p.mu.Unlock()
		if over {
			t.Fatalf("reorder buffer exceeded the %d-byte budget at seq %d", budget, seq)
		}
	}
	s := d.Stats()
	if s.ShedFrames == 0 || s.ShedBytes == 0 {
		t.Fatalf("ShedFrames=%d ShedBytes=%d: nothing shed past the budget", s.ShedFrames, s.ShedBytes)
	}

	// The survivors are the lowest sequences (highest are shed first).
	// Delivering the missing seq 1 must drain the full contiguous prefix.
	d.receiveDatagram(ep1, forgeSeqFrame(d, 1, payload))
	deadline := time.Now().Add(5 * time.Second)
	for len(got) == 0 && time.Now().Before(deadline) {
		ep1.Poll()
	}
	for i := 0; ; i++ {
		if ep1.Poll() == 0 && i > 10 {
			break
		}
	}
	if len(got) < 2 {
		t.Fatalf("drained only %d frames after filling the gap", len(got))
	}
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("delivery order broken at %d: got seq %d", i, v)
		}
	}
	t.Logf("shed %d frames (%d bytes), drained %d in order", s.ShedFrames, s.ShedBytes, len(got))
}

// TestShedBurstMarksSuspect: sustained shedding within one ticker sweep is
// a liveness signal — the flooding sender transitions Alive→Suspect, which
// the monotonic PeersSuspected counter records even if later traffic
// restores it to Alive.
func TestShedBurstMarksSuspect(t *testing.T) {
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP})
	defer d.Close()
	p := d.peer(0, 1)
	p.mu.Lock()
	p.shedRecent = relShedSuspect
	p.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for d.Stats().PeersSuspected == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d.Stats().PeersSuspected == 0 {
		t.Fatal("a shed burst never marked the flooding peer Suspect")
	}
}
