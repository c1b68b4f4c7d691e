package gupcxx_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"gupcxx"
)

// chokedConfig builds a 2-rank UDP world whose rank-1 outbound path will
// be killed (acks never return), so rank 0's send window toward it fills
// and stays full. On the UDP conduit every rank shares one node, so RMA
// and atomics short-circuit through shared memory; wire RPC is the op
// family that actually crosses the socket, and the one these tests choke.
func chokedConfig(policy gupcxx.BackpressurePolicy, wait time.Duration) gupcxx.Config {
	return gupcxx.Config{
		Ranks: 2, Conduit: gupcxx.UDP, SegmentBytes: 1 << 12,
		Fault:            &gupcxx.FaultConfig{}, // shield from any GUPCXX_UDP_FAULT preset
		RelWindow:        4,
		RelWindowMin:     4, // hold the AIMD floor at the ceiling: occupancy stays deterministic
		Backpressure:     policy,
		BackpressureWait: wait,
	}
}

// TestBackpressureFailFastPolicy: with the window toward a choked (alive
// but non-acking) peer full, the next operation must resolve immediately
// with ErrBackpressure — a *BackpressureError naming the peer — instead of
// blocking inside the substrate.
func TestBackpressureFailFastPolicy(t *testing.T) {
	defer leakCheck(t)()
	w, err := gupcxx.NewWorld(chokedConfig(gupcxx.BackpressureFailFast, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	echo := w.RegisterRPC(func(r *gupcxx.Rank, args []byte) []byte {
		return append([]byte(nil), args...)
	})
	var victimMayExit atomic.Bool
	err = w.Run(func(r *gupcxx.Rank) {
		if r.Me() == 1 {
			for !victimMayExit.Load() {
				r.Progress()
			}
			return
		}
		defer victimMayExit.Store(true)
		chokeAndFill(t, w, r, echo)
		fs := r.Flow(1)
		if fs.InFlight != 4 || fs.Window != 4 {
			t.Errorf("flow toward choked peer = %+v, want 4/4 occupancy", fs)
		}

		start := time.Now()
		_, werr := gupcxx.RPCWire(r, 1, echo, []byte("over")).WaitErr()
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("fail-fast refusal took %v", elapsed)
		}
		if !errors.Is(werr, gupcxx.ErrBackpressure) {
			t.Fatalf("overflow call resolved %v, want ErrBackpressure", werr)
		}
		var bpe *gupcxx.BackpressureError
		if !errors.As(werr, &bpe) || bpe.Peer != 1 {
			t.Errorf("error %v does not carry peer rank 1", werr)
		}
		// The refusal also gates closure RPC: delivery would be in-memory on
		// this conduit, but admission still answers for the overloaded peer.
		cerr := gupcxx.RPC(r, 1, func(*gupcxx.Rank) {}).WaitErr()
		if !errors.Is(cerr, gupcxx.ErrBackpressure) {
			t.Errorf("overflow closure RPC resolved %v, want ErrBackpressure", cerr)
		}
		// And the value-carrying form.
		_, verr := gupcxx.RPCCall(r, 1, func(*gupcxx.Rank) int { return 1 }).WaitErr()
		if !errors.Is(verr, gupcxx.ErrBackpressure) {
			t.Errorf("overflow RPCCall resolved %v, want ErrBackpressure", verr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Domain().Stats().BackpressureFails; got < 3 {
		t.Errorf("BackpressureFails = %d, want >= 3", got)
	}
}

// chokeAndFill drains any straggler frames toward rank 1, kills rank 1's
// outbound path (so acks stop), and fills rank 0's four-slot window with
// wire RPCs whose replies will never arrive. The abandoned futures resolve
// at World.Close; the window stays full for the duration of the test body.
func chokeAndFill(t *testing.T, w *gupcxx.World, r *gupcxx.Rank, echo gupcxx.RPCHandlerID) {
	t.Helper()
	// A collective may leave frames awaiting delayed acks; wait for the
	// stream to idle so the fill count below is exact.
	for deadline := time.Now().Add(5 * time.Second); r.Flow(1).InFlight != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("stream to rank 1 never idled: %+v", r.Flow(1))
		}
		r.Progress()
	}
	if err := w.SetFault(1, gupcxx.FaultConfig{Drop: 1.0}); err != nil {
		t.Error(err)
	}
	for i := 0; i < 4; i++ {
		gupcxx.RPCWire(r, 1, echo, []byte{byte(i)})
		r.Progress()
	}
}

// TestBackpressureBoundedBlock: the default policy parks the initiation
// for Config.BackpressureWait hoping for a credit, then fails with
// ErrBackpressure — bounded, never a wedge.
func TestBackpressureBoundedBlock(t *testing.T) {
	defer leakCheck(t)()
	w, err := gupcxx.NewWorld(chokedConfig(gupcxx.BackpressureBlock, 60*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	echo := w.RegisterRPC(func(r *gupcxx.Rank, args []byte) []byte {
		return append([]byte(nil), args...)
	})
	var victimMayExit atomic.Bool
	err = w.Run(func(r *gupcxx.Rank) {
		if r.Me() == 1 {
			for !victimMayExit.Load() {
				r.Progress()
			}
			return
		}
		defer victimMayExit.Store(true)
		chokeAndFill(t, w, r, echo)
		start := time.Now()
		_, werr := gupcxx.RPCWire(r, 1, echo, []byte("over")).WaitErr()
		elapsed := time.Since(start)
		if !errors.Is(werr, gupcxx.ErrBackpressure) {
			t.Fatalf("blocked call resolved %v, want ErrBackpressure", werr)
		}
		if elapsed < 40*time.Millisecond {
			t.Errorf("admission blocked only %v, want about the 60ms bound", elapsed)
		}
		if elapsed > 5*time.Second {
			t.Errorf("admission blocked %v, far past the bound", elapsed)
		}
		// A caller deadline tighter than the policy bound wins: the wait is
		// min(BackpressureWait, remaining budget).
		start = time.Now()
		_, derr := gupcxx.RPCWire(r, 1, echo, []byte("d"),
			gupcxx.OpDeadline(5*time.Millisecond)).WaitErr()
		if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
			t.Errorf("deadline-bounded admission blocked %v, want about 5ms", elapsed)
		}
		if derr == nil {
			t.Error("deadline-bounded overflow call resolved nil, want an error")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFlowAccessor: Rank.Flow exposes the adaptive flow state — a live
// RTT estimate and a healthy window after acked wire traffic, and the
// zero snapshot for self and out-of-range ranks.
func TestFlowAccessor(t *testing.T) {
	defer leakCheck(t)()
	w, err := gupcxx.NewWorld(gupcxx.Config{
		Ranks: 2, Conduit: gupcxx.UDP, SegmentBytes: 1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	echo := w.RegisterRPC(func(r *gupcxx.Rank, args []byte) []byte {
		return append([]byte(nil), args...)
	})
	err = w.Run(func(r *gupcxx.Rank) {
		peer := (r.Me() + 1) % r.N()
		for i := 0; i < 32; i++ {
			if _, werr := gupcxx.RPCWire(r, peer, echo, []byte{byte(i)}).WaitErr(); werr != nil {
				t.Fatalf("rank %d: echo %d failed: %v", r.Me(), i, werr)
			}
		}
		fs := r.Flow(peer)
		if fs.Window <= 0 {
			t.Errorf("rank %d: window %d after healthy traffic", r.Me(), fs.Window)
		}
		if fs.SRTT <= 0 || fs.RTO <= 0 {
			t.Errorf("rank %d: estimator empty after 32 acked round trips: %+v", r.Me(), fs)
		}
		if fs.RTO < fs.SRTT {
			t.Errorf("rank %d: RTO %v below SRTT %v", r.Me(), fs.RTO, fs.SRTT)
		}
		if self := r.Flow(r.Me()); self != (gupcxx.FlowState{}) {
			t.Errorf("self flow state = %+v, want zero", self)
		}
		if oob := r.Flow(99); oob != (gupcxx.FlowState{}) {
			t.Errorf("out-of-range flow state = %+v, want zero", oob)
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineErrorMatchesContext pins the stdlib interoperability of the
// deadline sentinel: code written against context.DeadlineExceeded (and
// net-style Timeout() classification) recognizes our failures unchanged.
func TestDeadlineErrorMatchesContext(t *testing.T) {
	if !errors.Is(gupcxx.ErrDeadlineExceeded, context.DeadlineExceeded) {
		t.Error("ErrDeadlineExceeded does not match context.DeadlineExceeded under errors.Is")
	}
	var to interface{ Timeout() bool }
	if !errors.As(gupcxx.ErrDeadlineExceeded, &to) || !to.Timeout() {
		t.Error("ErrDeadlineExceeded does not classify as a timeout")
	}
	// It is still its own sentinel, not context.DeadlineExceeded itself.
	if errors.Is(context.DeadlineExceeded, gupcxx.ErrDeadlineExceeded) {
		t.Error("matching must be one-directional (ours → stdlib)")
	}
}

// TestBackpressureErrorTyping pins the public error taxonomy without a
// world: the typed error matches the sentinel class and exposes the rank.
func TestBackpressureErrorTyping(t *testing.T) {
	err := error(&gupcxx.BackpressureError{Peer: 3})
	if !errors.Is(err, gupcxx.ErrBackpressure) {
		t.Error("*BackpressureError does not match ErrBackpressure")
	}
	var bpe *gupcxx.BackpressureError
	if !errors.As(err, &bpe) || bpe.Peer != 3 {
		t.Errorf("errors.As lost the peer rank: %+v", bpe)
	}
	if errors.Is(err, gupcxx.ErrPeerUnreachable) {
		t.Error("backpressure must not classify as unreachability: the peer is alive")
	}
}
