package gupcxx_test

// Shape tests: the paper's qualitative claims, asserted end-to-end with
// deliberately generous thresholds (the quantitative reproduction lives in
// bench/ + EXPERIMENTS.md; these tests exist so a regression that
// destroys an effect — e.g. the eager path starting to allocate — fails
// `go test`). Skipped in -short mode.

import (
	"testing"
	"time"

	"gupcxx"
	"gupcxx/internal/core"
	"gupcxx/internal/gups"
	"gupcxx/internal/stats"
)

// timePerOp measures the best-of-5 mean time per operation of fn(iter
// count) on rank 0 of a two-rank world, and returns the world's
// op-lifecycle counters with it, so a shape test can assert the mechanism
// behind a timing by count.
func timePerOp(t *testing.T, cfg gupcxx.Config, iters int, fn func(r *gupcxx.Rank, tgt gupcxx.GlobalPtr[uint64], n int)) (time.Duration, gupcxx.OpStats) {
	t.Helper()
	w, err := gupcxx.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var samples []time.Duration
	err = w.Run(func(r *gupcxx.Rank) {
		tgt := gupcxx.New[uint64](r)
		tgts := gupcxx.ExchangePtr(r, tgt)
		r.Barrier()
		if r.Me() == 0 {
			fn(r, tgts[1], iters/5+1) // warmup
			for s := 0; s < 5; s++ {
				start := time.Now()
				fn(r, tgts[1], iters)
				samples = append(samples, time.Since(start))
			}
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return stats.Summarize(samples, 3).TopKMean / time.Duration(iters), w.OpStats()
}

// minSpeedup is the eager-vs-defer ratio the wall-clock shape tests
// assert. The effect is ~7x in a plain build; race-detector
// instrumentation taxes every memory access on both sides and compresses
// the measured ratio toward 2x on a single-CPU host, so the bar drops
// there — still far above parity, so a destroyed effect keeps failing.
func minSpeedup() float64 {
	if raceEnabled {
		return 1.4
	}
	return 2
}

// timedOps is how many operations timePerOp has fn issue in all: the
// warm-up pass plus five timed ones.
func timedOps(iters int) int64 { return int64(iters/5 + 1 + 5*iters) }

func putLoop(r *gupcxx.Rank, tgt gupcxx.GlobalPtr[uint64], n int) {
	for i := 0; i < n; i++ {
		gupcxx.Rput(r, uint64(i), tgt).Wait()
	}
}

// TestShapeOnNodeEagerWins: on-node puts under eager must be at least 2×
// faster than deferred (the paper reports ~90%+ op-rate improvements; we
// observe ~7×).
func TestShapeOnNodeEagerWins(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	const iters = 100_000
	base := gupcxx.Config{Ranks: 2, Conduit: gupcxx.PSHM, SegmentBytes: 1 << 14}
	eager, deferred := base, base
	eager.Version = gupcxx.Eager2021_3_6
	deferred.Version = gupcxx.Defer2021_3_6
	te, _ := timePerOp(t, eager, iters, putLoop)
	td, _ := timePerOp(t, deferred, iters, putLoop)
	t.Logf("on-node put: eager %v/op, defer %v/op", te, td)
	if float64(td) < minSpeedup()*float64(te) {
		t.Errorf("eager (%v) not ≥%.1fx faster than defer (%v) on-node", te, minSpeedup(), td)
	}
}

// TestShapeLegacyExtraAllocCosts: 2021.3.0 must be slower than
// 2021.3.6-defer on local RMA (the allocation-elimination optimization).
// The mechanism is asserted by count on every build — one extra
// operation-state allocation per local RMA op under 2021.3.0, none under
// 2021.3.6 — and the wall-clock ordering on the plain build only: one
// 32-byte allocation is a small share of a deferred put, and under the
// race detector the ordering of two such runs measures the scheduler.
func TestShapeLegacyExtraAllocCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	const iters = 100_000
	base := gupcxx.Config{Ranks: 2, Conduit: gupcxx.PSHM, SegmentBytes: 1 << 14}
	legacy, deferred := base, base
	legacy.Version = gupcxx.Legacy2021_3_0
	deferred.Version = gupcxx.Defer2021_3_6
	tl, sl := timePerOp(t, legacy, iters, putLoop)
	td, sd := timePerOp(t, deferred, iters, putLoop)
	t.Logf("on-node put: legacy %v/op (%d extra allocations), defer %v/op (%d)",
		tl, sl.Engine.LegacyAllocs, td, sd.Engine.LegacyAllocs)
	if sl.Engine.LegacyAllocs != timedOps(iters) || sd.Engine.LegacyAllocs != 0 {
		t.Errorf("extra operation-state allocations: legacy %d (want %d, one per local RMA op), 2021.3.6-defer %d (want 0)",
			sl.Engine.LegacyAllocs, timedOps(iters), sd.Engine.LegacyAllocs)
	}
	if !raceEnabled && tl <= td {
		t.Errorf("legacy (%v) should be slower than 2021.3.6-defer (%v)", tl, td)
	}
}

// TestShapeOffNodeParity: off-node, eager and defer must be within 2× of
// each other (the paper: statistically indistinguishable; our 1-core
// hosts add scheduling noise, hence the loose bound). The mechanism is
// asserted by count on every build: off-node nothing completes eagerly
// under either version, and every put completes off its wire ack. The
// wall-clock bound is asserted on the plain build only.
func TestShapeOffNodeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	const iters = 5_000
	base := gupcxx.Config{Ranks: 2, Conduit: gupcxx.SIM, SimLatency: 1, SegmentBytes: 1 << 14}
	eager, deferred := base, base
	eager.Version = gupcxx.Eager2021_3_6
	deferred.Version = gupcxx.Defer2021_3_6
	te, se := timePerOp(t, eager, iters, putLoop)
	td, sd := timePerOp(t, deferred, iters, putLoop)
	t.Logf("off-node put: eager %v/op, defer %v/op", te, td)
	for _, v := range []struct {
		name string
		ops  gupcxx.OpStats
	}{{"eager", se}, {"defer", sd}} {
		early := v.ops.Ops.Of(core.OpRMA, core.PhaseEagerCompleted)
		acked := v.ops.Ops.Of(core.OpRMA, core.PhaseWireAcked)
		if early != 0 || acked != timedOps(iters) {
			t.Errorf("off-node %s: %d RMA ops completed eagerly (want 0), %d off a wire ack (want %d)",
				v.name, early, acked, timedOps(iters))
		}
	}
	if !raceEnabled && (te > 2*td || td > 2*te) {
		t.Errorf("off-node parity violated: eager %v vs defer %v", te, td)
	}
}

// TestShapeGUPSFutureConjoining: the headline result — GUPS with
// conjoined futures must speed up by at least 2× under eager (paper:
// 2.4–13.5×). The mechanism is asserted by count on every build: the
// eager run conjoins only ready futures, so it builds no dependency
// node and routes nothing through the deferred queue, while the deferred
// run pays both for every update. The wall-clock ratio is asserted on
// the plain build only: four ranks under the race detector on a
// two-CPU host measure the scheduler, not the library.
func TestShapeGUPSFutureConjoining(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	const ranks, reps = 4, 3
	cfg := gups.Config{LogTableSize: 16, UpdatesPerRank: 1 << 13, Batch: 64}
	// Each update conjoins two futures (its get, then its put).
	const conjoined = 2 * ranks * reps * (1 << 13)
	run := func(ver gupcxx.Version) (time.Duration, core.Stats) {
		w, err := gupcxx.NewWorld(gupcxx.Config{
			Ranks: ranks, Conduit: gupcxx.PSHM, Version: ver, SegmentBytes: 4 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		var best time.Duration
		err = w.Run(func(r *gupcxx.Rank) {
			b, err := gups.New(r, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			for s := 0; s < reps; s++ {
				r.Barrier()
				start := time.Now()
				if err := b.Run(gups.RMAFuture); err != nil {
					t.Error(err)
				}
				r.Barrier()
				if r.Me() == 0 {
					d := time.Since(start)
					if best == 0 || d < best {
						best = d
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return best, w.Stats()
	}
	te, se := run(gupcxx.Eager2021_3_6)
	td, sd := run(gupcxx.Defer2021_3_6)
	t.Logf("GUPS rma-futures: eager %v (%d WhenAll nodes, %d deferred pushes), defer %v (%d, %d) (%.1fx)",
		te, se.WhenAllBuilt, se.DeferQPushes, td, sd.WhenAllBuilt, sd.DeferQPushes, float64(td)/float64(te))
	if se.WhenAllBuilt != 0 || se.DeferQPushes != 0 {
		t.Errorf("eager built %d WhenAll nodes and pushed %d deferred notifications, want 0 and 0",
			se.WhenAllBuilt, se.DeferQPushes)
	}
	// The first conjoin of each batch meets the ready seed future and is
	// elided on both versions, hence one node short per batch.
	if want := int64(conjoined - conjoined/cfg.Batch); sd.WhenAllBuilt < want || sd.DeferQPushes < conjoined {
		t.Errorf("deferred built %d WhenAll nodes (want ≥ %d) and pushed %d deferred notifications (want ≥ %d)",
			sd.WhenAllBuilt, want, sd.DeferQPushes, conjoined)
	}
	if !raceEnabled && float64(td) < 2*float64(te) {
		t.Errorf("future-conjoining speedup below 2x: eager %v, defer %v", te, td)
	}
}

// TestShapeEagerAllocationFree: the allocation claim, measured with the
// allocator rather than wall clock: an on-node eager put performs zero
// heap allocations.
func TestShapeEagerAllocationFree(t *testing.T) {
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
			avg := testing.AllocsPerRun(1000, func() {
				gupcxx.Rput(r, 1, tgts[1]).Wait()
			})
			if avg != 0 {
				t.Errorf("eager on-node put allocates %.2f objects/op, want 0", avg)
			}
			avgAmo := testing.AllocsPerRun(1000, func() {
				// Non-fetching atomic — also allocation-free.
				gupcxx.NewAtomicDomain[uint64](r).Add(tgts[1], 1).Wait()
			})
			// One allocation for the AtomicDomain handle itself is
			// created outside the measured path in real code; construct
			// it in-loop here and tolerate exactly that one.
			if avgAmo > 1 {
				t.Errorf("eager non-fetching atomic allocates %.2f objects/op, want ≤ 1", avgAmo)
			}
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
