package gupcxx_test

// Unified-pipeline guards: allocation bounds for the eager fast path
// (including the value-carrying operations, whose per-call cell the
// pipeline's inline value futures remove). The per-family latencies are
// the benchmark's gupcxx.*_p50_ns layer metrics (bench/).

import (
	"runtime"
	"testing"
	"time"

	"gupcxx"
)

// TestOpPipelineValueAllocationFree pins the allocation contract of the
// unified pipeline's eager path, value-producing operations included:
// under the inline-value version knob an eagerly-completed Rget or
// fetching atomic returns its value inside the future struct itself, so
// the §III-B per-call cell allocation is gone. The value-less forms were
// already allocation-free and must stay so.
func TestOpPipelineValueAllocationFree(t *testing.T) {
	w, err := gupcxx.NewWorld(gupcxx.Config{
		Ranks: 2, Conduit: gupcxx.PSHM, Version: gupcxx.Eager2021_3_6, SegmentBytes: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(r *gupcxx.Rank) {
		tgt := gupcxx.New[uint64](r)
		tgts := gupcxx.ExchangePtr(r, tgt)
		r.Barrier()
		if r.Me() == 0 {
			ad := gupcxx.NewAtomicDomain[uint64](r)
			var sink uint64
			// The destination buffer lives outside the measured closure:
			// the remote branch of RgetBulk retains it until the reply, so
			// a per-iteration buffer would be charged one escape per run.
			var buf [1]uint64
			cases := []struct {
				name string
				op   func()
			}{
				{"rget", func() { sink += gupcxx.Rget(r, tgts[1]).Wait() }},
				{"fetchadd", func() { sink += ad.FetchAdd(tgts[1], 1).Wait() }},
				{"load", func() { sink += ad.Load(tgts[1]).Wait() }},
				{"rgetbulk", func() { gupcxx.RgetBulk(r, tgts[1], buf[:]).Wait() }},
			}
			for _, c := range cases {
				if avg := testing.AllocsPerRun(1000, c.op); avg != 0 {
					t.Errorf("eager on-node %s allocates %.2f objects/op, want 0", c.name, avg)
				}
			}
			benchSinkU64 = sink
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpPipelineAsyncRecycling guards the asynchronous leg: steady-state
// off-node-style traffic (SIM conduit) must recycle its completion
// records through the engine freelist rather than allocating one per
// operation. The bound is loose (the substrate's arena warms up during
// the run) but catches a per-op completion-state regression.
func TestOpPipelineAsyncRecycling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	w, err := gupcxx.NewWorld(gupcxx.Config{
		Ranks: 2, Conduit: gupcxx.SIM, Version: gupcxx.Eager2021_3_6,
		SegmentBytes: 1 << 14, RanksPerNode: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(r *gupcxx.Rank) {
		tgt := gupcxx.New[uint64](r)
		tgts := gupcxx.ExchangePtr(r, tgt)
		r.Barrier()
		if r.Me() == 0 {
			// Warm the freelists and wire-buffer pools.
			for i := 0; i < 64; i++ {
				gupcxx.Rput(r, uint64(i), tgts[1]).Wait()
			}
			avg := testing.AllocsPerRun(500, func() {
				gupcxx.Rput(r, 1, tgts[1]).Wait()
			})
			// The future cell for the async completion is the one
			// irreducible allocation; the AsyncCompletion record itself
			// must come from the freelist.
			if avg > 1 {
				t.Errorf("steady-state off-node put allocates %.2f objects/op, want <= 1", avg)
			}
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOpPipelineObservedAllocationFree pins the operations plane's cost
// contract on the eager fast path: a world with the full plane active —
// event bus wired into the substrate, counter mirrors flushing, metrics
// listener bound — must keep eager ops at 0 allocs/op while the phase
// hook is nil, and installing the latency sampler (PhaseSampler) must add
// clock reads but still no allocations.
func TestOpPipelineObservedAllocationFree(t *testing.T) {
	w, err := gupcxx.NewWorld(gupcxx.Config{
		Ranks: 2, Conduit: gupcxx.PSHM, Version: gupcxx.Eager2021_3_6,
		SegmentBytes: 1 << 14, MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, mode := range []string{"observed", "sampled"} {
		if mode == "sampled" {
			w.EnablePhaseSampling()
		}
		err = w.Run(func(r *gupcxx.Rank) {
			tgt := gupcxx.New[uint64](r)
			tgts := gupcxx.ExchangePtr(r, tgt)
			r.Barrier()
			if r.Me() == 0 {
				ad := gupcxx.NewAtomicDomain[uint64](r)
				var sink uint64
				cases := []struct {
					name string
					op   func()
				}{
					{"put", func() { gupcxx.Rput(r, 1, tgts[1]).Wait() }},
					{"get", func() { sink += gupcxx.Rget(r, tgts[1]).Wait() }},
					{"fetchadd", func() { sink += ad.FetchAdd(tgts[1], 1).Wait() }},
				}
				for _, c := range cases {
					if avg := testing.AllocsPerRun(1000, c.op); avg != 0 {
						t.Errorf("%s eager %s allocates %.2f objects/op, want 0", mode, c.name, avg)
					}
				}
				benchSinkU64 = sink
			}
			r.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if mc := w.LatencyHist(gupcxx.OpRMA, gupcxx.PhaseEagerCompleted).Count(); mc == 0 {
		t.Error("sampled pass recorded no rma/eager-completed latencies")
	}
}

// TestOpPipelineObservedAsyncContinuation extends the guard to the
// asynchronous continuation leg: off-node-style continuation ops under an
// active operations plane must stay allocation-free in steady state, just
// as they are unobserved.
func TestOpPipelineObservedAsyncContinuation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	w, err := gupcxx.NewWorld(gupcxx.Config{
		Ranks: 2, Conduit: gupcxx.SIM, Version: gupcxx.Eager2021_3_6,
		SegmentBytes: 1 << 14, RanksPerNode: 1, SimLatency: time.Nanosecond,
		MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(r *gupcxx.Rank) {
		tgt := gupcxx.New[uint64](r)
		tgts := gupcxx.ExchangePtr(r, tgt)
		r.Barrier()
		if r.Me() == 0 {
			for i := 0; i < 64; i++ { // warm freelists and wire pools
				gupcxx.Rput(r, uint64(i), tgts[1]).Wait()
			}
			fired, issued := 0, 0
			cx := []gupcxx.Cx{gupcxx.OpContinue(func(error) { fired++ })}
			avg := testing.AllocsPerRun(500, func() {
				gupcxx.Rput(r, 1, tgts[1], cx...)
				issued++
				progressUntil(r, func() bool { return fired >= issued })
			})
			if avg != 0 {
				t.Errorf("observed async continuation put allocates %.2f objects/op, want 0", avg)
			}
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// progressUntil drains the initiator's engine until done reports true,
// yielding to the peer rank's goroutine when no work is available (the
// same discipline Future.Wait applies through Engine.Idle).
func progressUntil(r *gupcxx.Rank, done func() bool) {
	for !done() {
		if r.Progress() == 0 {
			runtime.Gosched()
		}
	}
}
