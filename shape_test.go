package gupcxx_test

// Shape tests: the paper's qualitative claims, asserted end-to-end with
// deliberately generous thresholds (the quantitative reproduction lives in
// bench/ + EXPERIMENTS.md; these tests exist so a regression that
// destroys an effect — e.g. the eager path starting to allocate — fails
// `go test`). Skipped in -short mode.

import (
	"sort"
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
// assert. The effect is ~3x in a plain build; race-detector
// instrumentation taxes every memory access on both sides and compresses
// the measured ratio, so the bar drops there — still far above parity, so a destroyed effect keeps failing.
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

// pairedRatio runs rounds of one timed sample from each side, alternating
// which side goes first, and returns the median over rounds of slow's
// sample ÷ fast's. Pairing the samples makes load from packages that
// `go test ./...` runs alongside this one land on both sides alike, so the
// ratio measures the library rather than the host.
func pairedRatio(rounds int, fast, slow func() time.Duration) float64 {
	ratios := make([]float64, rounds)
	for i := range ratios {
		var f, s time.Duration
		if i%2 == 0 {
			f, s = fast(), slow()
		} else {
			s, f = slow(), fast()
		}
		ratios[i] = float64(s) / float64(f)
	}
	sort.Float64s(ratios)
	return ratios[rounds/2]
}

// putSampler opens a two-rank world and returns a sampler timing iters
// puts from rank 0 to rank 1 (after one warm-up pass of iters/5+1) and
// the world, for the caller to read its counters and close.
func putSampler(t *testing.T, cfg gupcxx.Config, iters int) (func() time.Duration, *gupcxx.World) {
	t.Helper()
	w, err := gupcxx.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tgt gupcxx.GlobalPtr[uint64]
	run := func(fn func(r *gupcxx.Rank)) {
		if err := w.Run(func(r *gupcxx.Rank) {
			r.Barrier()
			if r.Me() == 0 {
				fn(r)
			}
			r.Barrier()
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Run(func(r *gupcxx.Rank) {
		tgts := gupcxx.ExchangePtr(r, gupcxx.New[uint64](r))
		if r.Me() == 0 {
			tgt = tgts[1]
		}
	}); err != nil {
		t.Fatal(err)
	}
	run(func(r *gupcxx.Rank) { putLoop(r, tgt, iters/5+1) })
	return func() (d time.Duration) {
		run(func(r *gupcxx.Rank) {
			start := time.Now()
			putLoop(r, tgt, iters)
			d = time.Since(start)
		})
		return d
	}, w
}

// TestShapeOnNodeEagerWins: on-node puts under eager must be at least 2×
// faster than deferred (the paper reports ~90%+ op-rate improvements; we
// observe ~3× on a two-CPU host), in the median of paired samples.
func TestShapeOnNodeEagerWins(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	const iters, rounds = 50_000, 9
	base := gupcxx.Config{Ranks: 2, Conduit: gupcxx.PSHM, SegmentBytes: 1 << 14}
	eager, deferred := base, base
	eager.Version = gupcxx.Eager2021_3_6
	deferred.Version = gupcxx.Defer2021_3_6
	se, we := putSampler(t, eager, iters)
	defer we.Close()
	sd, wd := putSampler(t, deferred, iters)
	defer wd.Close()
	ratio := pairedRatio(rounds, se, sd)
	t.Logf("on-node put: defer ÷ eager = %.1fx (median of %d paired samples)", ratio, rounds)
	if ratio < minSpeedup() {
		t.Errorf("eager not ≥%.1fx faster than defer on-node: median paired ratio %.2f", minSpeedup(), ratio)
	}
}

// TestShapeLegacyExtraAllocCosts: 2021.3.0 must be slower than
// 2021.3.6-defer on local RMA (the allocation-elimination optimization),
// in the median of paired samples. The mechanism is asserted by count on
// every build — one extra operation-state allocation per local RMA op
// under 2021.3.0, none under 2021.3.6 — and the wall-clock ordering on the
// plain build only: one 32-byte allocation is a small share of a deferred
// put, and under the race detector the ordering measures the scheduler.
func TestShapeLegacyExtraAllocCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	const iters, rounds = 50_000, 9
	base := gupcxx.Config{Ranks: 2, Conduit: gupcxx.PSHM, SegmentBytes: 1 << 14}
	legacy, deferred := base, base
	legacy.Version = gupcxx.Legacy2021_3_0
	deferred.Version = gupcxx.Defer2021_3_6
	sl, wl := putSampler(t, legacy, iters)
	defer wl.Close()
	sd, wd := putSampler(t, deferred, iters)
	defer wd.Close()
	ratio := pairedRatio(rounds, sd, sl)
	al, ad := wl.Stats().LegacyAllocs, wd.Stats().LegacyAllocs
	t.Logf("on-node put: legacy ÷ defer = %.2fx (median of %d paired samples); extra allocations: legacy %d, defer %d",
		ratio, rounds, al, ad)
	if want := int64(iters/5 + 1 + rounds*iters); al != want || ad != 0 {
		t.Errorf("extra operation-state allocations: legacy %d (want %d, one per local RMA op), 2021.3.6-defer %d (want 0)",
			al, want, ad)
	}
	if !raceEnabled && ratio <= 1 {
		t.Errorf("legacy not slower than 2021.3.6-defer: median paired ratio %.3f", ratio)
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
// run pays both for every update. The wall-clock ratio — the median of
// paired eager/defer runs — is asserted on the plain build only: four
// ranks under the race detector on a two-CPU host measure the scheduler,
// not the library.
func TestShapeGUPSFutureConjoining(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test")
	}
	const ranks, reps = 4, 5
	cfg := gups.Config{LogTableSize: 16, UpdatesPerRank: 1 << 13, Batch: 64}
	// Each update conjoins two futures (its get, then its put).
	const conjoined = 2 * ranks * reps * (1 << 13)
	// world opens a GUPS world and returns a sampler timing one run of the
	// rma-futures variant, plus the world itself.
	world := func(ver gupcxx.Version) (func() time.Duration, *gupcxx.World) {
		w, err := gupcxx.NewWorld(gupcxx.Config{
			Ranks: ranks, Conduit: gupcxx.PSHM, Version: ver, SegmentBytes: 4 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		var benches [ranks]*gups.Bench
		if err := w.Run(func(r *gupcxx.Rank) {
			b, err := gups.New(r, cfg)
			if err != nil {
				t.Error(err)
			}
			benches[r.Me()] = b
		}); err != nil {
			t.Fatal(err)
		}
		return func() (d time.Duration) {
			if err := w.Run(func(r *gupcxx.Rank) {
				r.Barrier()
				start := time.Now()
				if err := benches[r.Me()].Run(gups.RMAFuture); err != nil {
					t.Error(err)
				}
				r.Barrier()
				if r.Me() == 0 {
					d = time.Since(start)
				}
			}); err != nil {
				t.Fatal(err)
			}
			return d
		}, w
	}
	runE, we := world(gupcxx.Eager2021_3_6)
	defer we.Close()
	runD, wd := world(gupcxx.Defer2021_3_6)
	defer wd.Close()
	ratio := pairedRatio(reps, runE, runD)
	se, sd := we.Stats(), wd.Stats()
	t.Logf("GUPS rma-futures: defer ÷ eager = %.1fx (median of %d paired runs); eager %d WhenAll nodes, %d deferred pushes; defer %d, %d",
		ratio, reps, se.WhenAllBuilt, se.DeferQPushes, sd.WhenAllBuilt, sd.DeferQPushes)
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
	if !raceEnabled && ratio < 2 {
		t.Errorf("future-conjoining speedup below 2x: median paired ratio %.2f", ratio)
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
