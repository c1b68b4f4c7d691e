package gasnet

import (
	"errors"
	"testing"
	"time"
)

// TestRetransmitExhaustionMarksPeerDown: under total loss, the sender's
// retransmission budget runs out, the destination is declared down, and
// the pending operation resolves with ErrPeerUnreachable instead of
// hanging — the liveness machinery's core contract.
func TestRetransmitExhaustionMarksPeerDown(t *testing.T) {
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP, SegmentBytes: 1 << 12,
		Fault:          &FaultConfig{Seed: 1, Drop: 1.0},
		RelMaxAttempts: 3,
	})
	defer d.Close()
	ep0 := d.Endpoint(0)

	var gotErr error
	hookPeer := -1
	ep0.SetPeerDownHook(func(peer int, err error) { hookPeer = peer })
	ep0.PutRemote(1, 0, []byte{1, 2, 3, 4}, nil, func(err error) { gotErr = err })

	deadline := time.Now().Add(10 * time.Second)
	for gotErr == nil && time.Now().Before(deadline) {
		ep0.Poll()
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(gotErr, ErrPeerUnreachable) {
		t.Fatalf("pending put resolved with %v, want ErrPeerUnreachable", gotErr)
	}
	if !ep0.PeerDown(1) {
		t.Error("peer 1 not marked down")
	}
	if hookPeer != 1 {
		t.Errorf("peer-down hook saw peer %d, want 1", hookPeer)
	}
	if ep0.PendingOps() != 0 {
		t.Errorf("%d ops still pending after peer declared down", ep0.PendingOps())
	}
	s := d.Stats()
	if s.RetransmitExhausted == 0 {
		t.Error("RetransmitExhausted = 0")
	}
	if s.PeersDown == 0 {
		t.Error("PeersDown = 0")
	}
	if s.RemoteOpsFailed == 0 {
		t.Error("RemoteOpsFailed = 0")
	}

	// Operations initiated after the declaration fail at injection: the op
	// table must not accumulate entries no sweep will ever retire.
	var eager error
	ep0.GetRemote(1, 0, 4, make([]byte, 4), func(err error) { eager = err })
	if !errors.Is(eager, ErrPeerUnreachable) {
		t.Errorf("post-down get resolved with %v at injection", eager)
	}
	var amoErr error
	ep0.AmoRemote(1, 0, AmoAdd, 1, 0, nil, func(err error) { amoErr = err })
	if !errors.Is(amoErr, ErrPeerUnreachable) {
		t.Errorf("post-down amo resolved with %v at injection", amoErr)
	}
	if got := d.Stats().DownPeerFails; got < 2 {
		t.Errorf("DownPeerFails = %d, want >= 2", got)
	}
}

// TestHeartbeatsKeepIdlePeersAlive: with a healthy wire and zero
// application traffic, heartbeats alone must hold every peer in the Alive
// state well past the DownAfter silence bound.
func TestHeartbeatsKeepIdlePeersAlive(t *testing.T) {
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP,
		HeartbeatEvery: time.Millisecond,
		SuspectAfter:   5 * time.Millisecond,
		DownAfter:      20 * time.Millisecond,
	})
	defer d.Close()
	time.Sleep(100 * time.Millisecond) // several DownAfter periods of idleness
	for r := 0; r < 2; r++ {
		if down := d.Endpoint(r).DownPeers(); len(down) != 0 {
			t.Errorf("rank %d declared %v down on a healthy idle wire", r, down)
		}
	}
	if s := d.Stats(); s.HeartbeatsSent == 0 {
		t.Error("HeartbeatsSent = 0 after 100ms of 1ms heartbeats")
	}
}

// TestHeartbeatSilenceMarksPeerDown: killing one rank's send path mid-run
// (SetFault Drop:1) silences it; the other side must walk
// Alive→Suspect→Down on heartbeat staleness alone, with no operation
// traffic to trip retransmission.
func TestHeartbeatSilenceMarksPeerDown(t *testing.T) {
	d := newTestDomain(t, Config{
		Ranks: 2, Conduit: UDP,
		Fault:          &FaultConfig{}, // shield from any GUPCXX_UDP_FAULT preset
		HeartbeatEvery: time.Millisecond,
		SuspectAfter:   5 * time.Millisecond,
		DownAfter:      20 * time.Millisecond,
	})
	defer d.Close()
	// Let both sides hear each other first.
	time.Sleep(10 * time.Millisecond)
	if d.Endpoint(0).AnyPeerDown() {
		t.Fatal("peer down before the fault was armed")
	}
	// Kill rank 1's outbound path: rank 0 stops hearing it.
	if err := d.SetFault(1, FaultConfig{Drop: 1.0}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !d.Endpoint(0).PeerDown(1) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !d.Endpoint(0).PeerDown(1) {
		t.Fatal("silent peer never declared down")
	}
	s := d.Stats()
	if s.PeersSuspected == 0 {
		t.Error("PeersSuspected = 0: Down must pass through Suspect")
	}
	// Down is sticky and one-sided: rank 1 still hears rank 0.
	if d.Endpoint(1).PeerDown(0) {
		t.Error("rank 1 declared rank 0 down, but rank 0's sends still flow")
	}
}

// TestLivenessConfigValidation pins the liveness knobs' validation.
func TestLivenessConfigValidation(t *testing.T) {
	t.Setenv(faultEnvVar, "")
	if _, err := NewDomain(Config{Ranks: 2, Conduit: UDP,
		SuspectAfter: 50 * time.Millisecond, DownAfter: 10 * time.Millisecond}); err == nil {
		t.Error("DownAfter < SuspectAfter accepted")
	}
	if _, err := NewDomain(Config{Ranks: 2, Conduit: UDP, RelMaxAttempts: -1}); err == nil {
		t.Error("negative RelMaxAttempts accepted")
	}
	d := newTestDomain(t, Config{Ranks: 2, Conduit: UDP})
	defer d.Close()
	// The fault shim is always interposed: arming faults mid-run needs no
	// construction-time Config.Fault.
	if err := d.SetFault(0, FaultConfig{Drop: 0.5}); err != nil {
		t.Errorf("SetFault on a nil-Fault domain failed: %v", err)
	}
	if err := d.SetFault(2, FaultConfig{}); err == nil {
		t.Error("SetFault accepted an out-of-range rank")
	}
	if err := d.SetFault(0, FaultConfig{Drop: 2}); err == nil {
		t.Error("SetFault accepted an invalid probability")
	}
}
