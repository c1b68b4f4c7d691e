package gasnet

import (
	"errors"
	"testing"
	"time"
)

// clearNetEnv shields a test from the suite-wide fault/scenario presets
// (make test-loss, GUPCXX_UDP_SCENARIO): partition tests assert exact
// heal counts, which ambient loss would turn into flap counts.
func clearNetEnv(t *testing.T) {
	t.Helper()
	t.Setenv(faultEnvVar, "")
	t.Setenv(scenarioEnvVar, "")
}

// fastHBConfig returns a 2-rank UDP config with tight liveness bounds so
// partition→Down→heal cycles complete in tens of milliseconds.
func fastHBConfig() Config {
	return Config{
		Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 12,
		HeartbeatEvery: time.Millisecond,
		SuspectAfter:   5 * time.Millisecond,
		DownAfter:      20 * time.Millisecond,
	}
}

// TestScenarioParse pins the scenario DSL grammar: phase times, directive
// forms, and the rejection of malformed specs.
func TestScenarioParse(t *testing.T) {
	good := []string{
		"at=0s partition=0,1|2,3",
		"at=2s partition=0,1|2,3; at=6s heal",
		"at=0s partition=0|1,2; at=0s heal", // equal times are nondecreasing
		"at=1s fault=drop=0.5,seed=3",
		"at=1s fault@0>1=drop=1",
		"at=0s latency=5ms jitter=1ms",
		"at=100ms partition=0|3 fault@1>2=dup=0.5; at=1s heal latency=2ms",
		" ; at=1s heal ; ", // empty phases are skipped
	}
	for _, spec := range good {
		if _, err := parseScenario(spec, 4); err != nil {
			t.Errorf("parseScenario(%q) = %v, want nil", spec, err)
		}
	}
	bad := []string{
		"",
		"   ;  ",
		"heal",                   // missing at=
		"at=2s heal; at=1s heal", // decreasing times
		"at=-1s heal",            // negative time
		"at=1s",                  // no directives
		"at=1s frobnicate",       // unknown directive
		"at=1s partition=",       // no groups
		"at=1s partition=0|9",    // rank out of range
		"at=1s partition=0|x",    // non-numeric rank
		"at=1s fault=drop=2",     // invalid probability
		"at=1s fault@0>9=drop=1", // bad destination
		"at=1s fault@01=drop=1",  // missing '>'
		"at=1s latency=-5ms",     // negative duration
		"at=1s jitter=fast",      // unparseable duration
		"at=bogus heal",          // unparseable time
	}
	for _, spec := range bad {
		if _, err := parseScenario(spec, 4); err == nil {
			t.Errorf("parseScenario(%q) accepted, want error", spec)
		}
	}

	clearNetEnv(t)
	smp := newTestDomain(t, Config{Ranks: 2})
	defer smp.Close()
	if err := smp.StartScenario("at=0s heal"); err == nil {
		t.Error("StartScenario accepted on a non-UDP domain")
	}
	udp := newTestDomain(t, Config{Ranks: 2, Conduit: UDP})
	defer udp.Close()
	if err := udp.StartScenario("at=0s latency=1ms"); err != nil {
		t.Errorf("StartScenario on a UDP domain: %v", err)
	}
}

// TestSetFaultMidRunArming: the fault layer is always interposed, so a
// domain built with no Config.Fault can still have loss armed mid-run —
// the shim transitions from its idle fast path to injecting.
func TestSetFaultMidRunArming(t *testing.T) {
	clearNetEnv(t)
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 12, RelMaxAttempts: 3,
	})
	defer d.Close()
	if got := d.Stats().FaultsInjected; got != 0 {
		t.Fatalf("FaultsInjected = %d before any fault was armed", got)
	}
	if err := d.SetFault(0, FaultConfig{Seed: 1, Drop: 1}); err != nil {
		t.Fatalf("SetFault on a nil-Fault domain: %v", err)
	}
	ep0 := d.Endpoint(0)
	var gotErr error
	ep0.PutRemote(1, 0, []byte{1, 2, 3, 4}, nil, func(err error) { gotErr = err })
	deadline := time.Now().Add(10 * time.Second)
	for gotErr == nil && time.Now().Before(deadline) {
		ep0.Poll()
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(gotErr, ErrPeerUnreachable) {
		t.Fatalf("put under mid-run Drop:1 resolved with %v, want ErrPeerUnreachable", gotErr)
	}
	if got := d.Stats().FaultsInjected; got == 0 {
		t.Error("FaultsInjected = 0 after a put under Drop:1")
	}
}

// TestLatencyInjection: SetLatency holds surviving datagrams on the delay
// queue until the domain ticker releases them, so a put's completion time
// reflects the injected one-way latency.
func TestLatencyInjection(t *testing.T) {
	clearNetEnv(t)
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 12})
	defer d.Close()
	if err := d.SetLatency(0, 30*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
	done := false
	start := time.Now()
	ep0.PutRemote(1, 0, []byte{1, 2, 3, 4}, nil, func(err error) {
		if err != nil {
			t.Errorf("put under latency failed: %v", err)
		}
		done = true
	})
	deadline := time.Now().Add(10 * time.Second)
	for !done && time.Now().Before(deadline) {
		ep0.Poll()
		ep1.Poll()
		time.Sleep(time.Millisecond)
	}
	if !done {
		t.Fatal("put under 30ms latency never completed")
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("put completed in %v, want >= injected 30ms latency", elapsed)
	}
}

// TestPartitionDownAndHeal is the core recovery walk on one in-process
// domain: a full cut drives both directions Down (victim ops fail fast),
// and lifting it heals both pairs under the same incarnation — zero
// readmissions, and the wire works again in both directions.
func TestPartitionDownAndHeal(t *testing.T) {
	clearNetEnv(t)
	d := newTestDomain(t, fastHBConfig())
	defer d.Close()
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)

	// Healthy start: one round trip completes.
	done := false
	ep0.PutRemote(1, 0, []byte{1, 2, 3, 4}, nil, func(err error) {
		if err != nil {
			t.Errorf("pre-cut put failed: %v", err)
		}
		done = true
	})
	deadline := time.Now().Add(10 * time.Second)
	for !done && time.Now().Before(deadline) {
		ep0.Poll()
		ep1.Poll()
		time.Sleep(100 * time.Microsecond)
	}
	if !done {
		t.Fatal("pre-cut put never completed")
	}
	inc01 := d.IncarnationOf(0, 1)

	if err := d.SetPartition([][]int{{0}, {1}}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for !(ep0.PeerDown(1) && ep1.PeerDown(0)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !ep0.PeerDown(1) || !ep1.PeerDown(0) {
		t.Fatal("partitioned peers never declared down")
	}
	// Victim-directed ops fail at injection, not hang.
	var eager error
	ep0.GetRemote(1, 0, 4, make([]byte, 4), func(err error) { eager = err })
	if !errors.Is(eager, ErrPeerUnreachable) {
		t.Errorf("op during cut resolved with %v, want ErrPeerUnreachable", eager)
	}
	if got := d.Stats().PartitionDrops; got == 0 {
		t.Error("PartitionDrops = 0 under an armed partition")
	}

	if err := d.HealPartition(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for (ep0.PeerDown(1) || ep1.PeerDown(0)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ep0.PeerDown(1) || ep1.PeerDown(0) {
		t.Fatal("peers never healed after the partition lifted")
	}
	s := d.Stats()
	if s.PeersHealed != 2 {
		t.Errorf("PeersHealed = %d, want 2 (one per direction)", s.PeersHealed)
	}
	if s.PeersReadmitted != 0 {
		t.Errorf("PeersReadmitted = %d, want 0: healing must not change incarnations", s.PeersReadmitted)
	}
	if s.ProbesSent == 0 {
		t.Error("ProbesSent = 0: healing without probes")
	}
	if got := d.IncarnationOf(0, 1); got != inc01 {
		t.Errorf("incarnation changed across heal: %d -> %d", inc01, got)
	}

	// The healed wire carries traffic in both directions.
	for _, dir := range []struct{ from, to int }{{0, 1}, {1, 0}} {
		done = false
		var putErr error
		d.Endpoint(dir.from).PutRemote(dir.to, 0, []byte{9, 9, 9, 9}, nil, func(err error) {
			putErr = err
			done = true
		})
		deadline = time.Now().Add(10 * time.Second)
		for !done && time.Now().Before(deadline) {
			ep0.Poll()
			ep1.Poll()
			time.Sleep(100 * time.Microsecond)
		}
		if !done || putErr != nil {
			t.Fatalf("post-heal put %d->%d: done=%v err=%v", dir.from, dir.to, done, putErr)
		}
	}
}

// TestPartitionHealViaScenario drives the same walk purely from the
// GUPCXX_UDP_SCENARIO environment variable: no API calls, the phased
// script cuts and heals the wire on its own schedule.
func TestPartitionHealViaScenario(t *testing.T) {
	t.Setenv(faultEnvVar, "")
	t.Setenv(scenarioEnvVar, "at=0s partition=0|1; at=250ms heal")
	d := newTestDomain(t, fastHBConfig())
	defer d.Close()
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)

	deadline := time.Now().Add(10 * time.Second)
	for !(ep0.PeerDown(1) && ep1.PeerDown(0)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !ep0.PeerDown(1) || !ep1.PeerDown(0) {
		t.Fatal("scenario partition never declared peers down")
	}
	deadline = time.Now().Add(10 * time.Second)
	for (ep0.PeerDown(1) || ep1.PeerDown(0)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ep0.PeerDown(1) || ep1.PeerDown(0) {
		t.Fatal("peers never healed after the scenario's heal phase")
	}
	s := d.Stats()
	if s.PeersHealed < 2 {
		t.Errorf("PeersHealed = %d, want >= 2", s.PeersHealed)
	}
	if s.PeersReadmitted != 0 {
		t.Errorf("PeersReadmitted = %d, want 0", s.PeersReadmitted)
	}
}

// TestAsymmetricLossHealsTogether: one-way loss (every 0→1 datagram cut,
// 1→0 clean) downs BOTH directions — rank 1 by silence, rank 0 by
// retransmission exhaustion — and clearing the pair override lets both
// heal: rank 0 via rank 1's probes, rank 1 via rank 0's now-delivered
// acks. The converged world carries traffic both ways with zero
// readmissions.
func TestAsymmetricLossHealsTogether(t *testing.T) {
	clearNetEnv(t)
	cfg := fastHBConfig()
	cfg.RelMaxAttempts = 4
	d := newTestDomain(t, cfg)
	defer d.Close()
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)

	// Healthy start, then sever 0→1 only.
	time.Sleep(10 * time.Millisecond)
	if ep0.AnyPeerDown() || ep1.AnyPeerDown() {
		t.Fatal("peer down before the loss was armed")
	}
	if err := d.SetPairFault(0, 1, FaultConfig{Drop: 1}); err != nil {
		t.Fatal(err)
	}
	// Drive sequenced traffic into the cut so rank 0's retransmission
	// budget exhausts (rank 1's clean heartbeats mean silence alone would
	// never down this direction).
	var putErr error
	ep0.PutRemote(1, 0, []byte{1, 2, 3, 4}, nil, func(err error) { putErr = err })
	saw01, saw10 := false, false // sticky: rank 0's view may flap via rank 1's probes
	deadline := time.Now().Add(10 * time.Second)
	for !(saw01 && saw10) && time.Now().Before(deadline) {
		ep0.Poll()
		ep1.Poll()
		saw01 = saw01 || ep0.PeerDown(1)
		saw10 = saw10 || ep1.PeerDown(0)
		time.Sleep(time.Millisecond)
	}
	if !saw01 || !saw10 {
		t.Fatalf("asymmetric loss: down 0->1 %v, down 1->0 %v, want both", saw01, saw10)
	}
	// The sweep that fails the put runs in rank 0's first Poll after the
	// death, which the loop above may have stopped just short of.
	for putErr == nil && time.Now().Before(deadline) {
		ep0.Poll()
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(putErr, ErrPeerUnreachable) {
		t.Fatalf("put into the cut resolved with %v, want ErrPeerUnreachable", putErr)
	}

	// A zero pair override is a valid config: the direction is clean again.
	if err := d.SetPairFault(0, 1, FaultConfig{}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for (ep0.PeerDown(1) || ep1.PeerDown(0)) && time.Now().Before(deadline) {
		ep0.Poll()
		ep1.Poll()
		time.Sleep(time.Millisecond)
	}
	if ep0.PeerDown(1) || ep1.PeerDown(0) {
		t.Fatal("views never reconverged after the loss cleared")
	}
	s := d.Stats()
	if s.PeersHealed < 2 {
		t.Errorf("PeersHealed = %d, want >= 2 (both directions)", s.PeersHealed)
	}
	if s.PeersReadmitted != 0 {
		t.Errorf("PeersReadmitted = %d, want 0", s.PeersReadmitted)
	}
	for _, dir := range []struct{ from, to int }{{0, 1}, {1, 0}} {
		done := false
		var err2 error
		d.Endpoint(dir.from).PutRemote(dir.to, 0, []byte{7, 7, 7, 7}, nil, func(err error) {
			err2 = err
			done = true
		})
		dl := time.Now().Add(10 * time.Second)
		for !done && time.Now().Before(dl) {
			ep0.Poll()
			ep1.Poll()
			time.Sleep(100 * time.Microsecond)
		}
		if !done || err2 != nil {
			t.Fatalf("post-heal put %d->%d: done=%v err=%v", dir.from, dir.to, done, err2)
		}
	}
}

// TestHealResetsRetransmitBackoff: frames parked behind a long partition
// carry fully backed-off RTOs (clamped at relRTOMax); heal must re-arm
// them — attempts zeroed, RTO reseeded from the estimator, deadline now —
// so the first post-heal exchange costs O(srtt), not O(100ms backoff).
func TestHealResetsRetransmitBackoff(t *testing.T) {
	clearNetEnv(t)
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 12,
		HeartbeatEvery: 5 * time.Millisecond,
		SuspectAfter:   50 * time.Millisecond,
		DownAfter:      300 * time.Millisecond, // long enough for RTO to clamp
	})
	defer d.Close()
	ep0 := d.Endpoint(0)

	if err := d.SetPartition([][]int{{0}, {1}}); err != nil {
		t.Fatal(err)
	}
	var gotErr error
	ep0.PutRemote(1, 0, []byte{1, 2, 3, 4}, nil, func(err error) { gotErr = err })
	deadline := time.Now().Add(20 * time.Second)
	for gotErr == nil && time.Now().Before(deadline) {
		ep0.Poll()
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(gotErr, ErrPeerUnreachable) {
		t.Fatalf("put into the partition resolved with %v, want ErrPeerUnreachable", gotErr)
	}

	// The pair is parked, not released, and its retransmission timer backed
	// all the way off while retransmitting into the cut.
	p := d.peer(0, 1)
	p.mu.Lock()
	parked := p.lc.state == peerDown && p.lc.cause == causeNet
	entries := len(p.inflight)
	maxRTO := p.timeout()
	p.mu.Unlock()
	if !parked {
		t.Fatal("pair not parked after a healable down")
	}
	if entries == 0 {
		t.Fatal("parked pair retained no in-flight entries")
	}
	if maxRTO < relRTOMax {
		t.Fatalf("max parked RTO %v never clamped to %v", time.Duration(maxRTO), time.Duration(relRTOMax))
	}

	// Heal while the wire is still cut, so the re-armed entries can be
	// observed before acks drain them. At most one ticker sweep can slip
	// in between heal and the lock below (one doubling from the reseeded
	// base), which is still far below the clamp.
	d.eps[0].host.deliver(1, event{kind: evProbeAck, inc: d.inc})
	p.mu.Lock()
	if p.lc.state == peerDown {
		t.Error("pair still parked after heal")
	}
	if len(p.inflight) != entries {
		t.Errorf("heal changed the in-flight set: %d -> %d entries", entries, len(p.inflight))
	}
	for i := range p.inflight {
		if e := &p.inflight[i]; e.attempts > 1 {
			t.Errorf("entry %d attempts = %d after heal, want re-armed (<= 1)", i, e.attempts)
		}
	}
	if rto := p.timeout(); rto > 4*relRTO {
		t.Errorf("rto = %v after heal, want reseeded near %v", time.Duration(rto), time.Duration(relRTO))
	}
	p.mu.Unlock()
	if got := d.Stats().PeersHealed; got != 1 {
		t.Errorf("PeersHealed = %d after one heal, want 1", got)
	}
	// Lift the cut so Close drains a live wire.
	if err := d.HealPartition(); err != nil {
		t.Fatal(err)
	}
}

// TestHealDrainsParkedWindow: a deep window parked behind a partition
// drains within a few round trips of the heal. The peer holds none of it,
// so after the timer's first burst every advancing ack resends the next
// rtxMax parked frames; one frame per round trip would take one standalone
// ack per frame.
func TestHealDrainsParkedWindow(t *testing.T) {
	clearNetEnv(t)
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 12})
	defer d.Close()
	ep0, ep1 := d.Endpoint(0), d.Endpoint(1)
	got := 0
	d.RegisterHandler(HandlerUserBase, func(*Endpoint, *Msg) { got++ })

	if err := d.SetPartition([][]int{{0}, {1}}); err != nil {
		t.Fatal(err)
	}
	const n = 192
	for i := 0; i < n; i++ {
		ep0.Send(1, Msg{Handler: HandlerUserBase})
		ep0.Flush()
	}
	h := d.eps[0].host
	h.deliver(1, event{kind: evExhausted})
	p := d.peer(0, 1)
	p.mu.Lock()
	parked := len(p.inflight)
	p.mu.Unlock()
	if !ep0.PeerDown(1) || parked != n {
		t.Fatalf("after the cut: down %v, %d parked; want true and %d", ep0.PeerDown(1), parked, n)
	}

	if err := d.HealPartition(); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	start := time.Now()
	h.deliver(1, event{kind: evProbeAck, inc: d.inc})
	deadline := start.Add(10 * time.Second)
	for left := parked; (got < n || left > 0) && time.Now().Before(deadline); {
		ep1.Poll()
		ep0.Poll()
		p.mu.Lock()
		left = len(p.inflight)
		p.mu.Unlock()
	}
	took := time.Since(start)
	after := d.Stats()
	acks := after.AcksStandalone - before.AcksStandalone
	t.Logf("%d parked frames drained in %v: %d retransmissions, %d standalone acks, %d RTO expirations",
		n, took, after.Retransmits-before.Retransmits, acks, after.RTOExpirations-before.RTOExpirations)
	if got != n {
		t.Fatalf("%d of %d messages delivered after the heal", got, n)
	}
	if acks > n/4 {
		t.Errorf("the drain took %d standalone acks for %d frames: about one round trip per frame", acks, n)
	}
}
