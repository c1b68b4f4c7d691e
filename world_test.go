package gupcxx_test

import (
	"testing"
	"time"

	"gupcxx"
)

// TestManualDrive exercises the single-goroutine driving mode: a World
// whose ranks are stepped by the caller rather than Run.
func TestManualDrive(t *testing.T) {
	w, err := gupcxx.NewWorld(gupcxx.Config{Ranks: 1, SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	r := w.Rank(0)
	p := gupcxx.New[int64](r)
	gupcxx.Rput(r, 5, p).Wait()
	if got := gupcxx.Rget(r, p).Wait(); got != 5 {
		t.Errorf("got %d", got)
	}
	if w.Ranks() != 1 || w.Version().Name != gupcxx.Eager2021_3_6.Name {
		t.Error("world accessors wrong")
	}
	if w.Domain() == nil {
		t.Error("domain accessor nil")
	}
}

func TestDefaultVersionIsEager(t *testing.T) {
	w, err := gupcxx.NewWorld(gupcxx.Config{Ranks: 1, SegmentBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if !w.Version().EagerDefault {
		t.Error("zero-value Config should select the eager version (the paper's proposed default)")
	}
}

func TestSimLatencyIsEnforced(t *testing.T) {
	lat := 3 * time.Millisecond
	cfg := gupcxx.Config{
		Ranks: 2, Conduit: gupcxx.SIM, SimLatency: lat, SegmentBytes: 1 << 12,
	}
	err := gupcxx.Launch(cfg, func(r *gupcxx.Rank) {
		p := gupcxx.New[int64](r)
		ptrs := gupcxx.ExchangePtr(r, p)
		r.Barrier()
		if r.Me() == 0 {
			start := time.Now()
			gupcxx.Rput(r, 1, ptrs[1]).Wait()
			if d := time.Since(start); d < 2*lat {
				t.Errorf("round trip %v < 2×latency %v", d, 2*lat)
			}
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEngineStatsAcrossVersions is the cost-model integration test: the
// same program exhibits the per-version completion costs the paper
// describes, observed end-to-end through the public API.
func TestEngineStatsAcrossVersions(t *testing.T) {
	const ops = 100
	run := func(ver gupcxx.Version) (cellAllocs, deferPushes, legacy, eager int64) {
		err := gupcxx.Launch(gupcxx.Config{Ranks: 2, Conduit: gupcxx.PSHM, Version: ver, SegmentBytes: 1 << 16},
			func(r *gupcxx.Rank) {
				p := gupcxx.New[uint64](r)
				ptrs := gupcxx.ExchangePtr(r, p)
				r.Barrier()
				if r.Me() == 0 {
					base := r.Engine().Stats
					for i := 0; i < ops; i++ {
						gupcxx.Rput(r, uint64(i), ptrs[1]).Wait()
					}
					st := r.Engine().Stats
					cellAllocs = st.CellAllocs - base.CellAllocs
					deferPushes = st.DeferQPushes - base.DeferQPushes
					legacy = st.LegacyAllocs - base.LegacyAllocs
					eager = st.EagerDeliveries - base.EagerDeliveries
				}
				r.Barrier()
			})
		if err != nil {
			t.Fatal(err)
		}
		return
	}

	cells, defers, legacy, eager := run(gupcxx.Eager2021_3_6)
	if cells != 0 || defers != 0 || legacy != 0 || eager != int64(ops) {
		t.Errorf("eager: cells=%d defers=%d legacy=%d eager=%d", cells, defers, legacy, eager)
	}
	cells, defers, legacy, eager = run(gupcxx.Defer2021_3_6)
	if cells != int64(ops) || defers != int64(ops) || legacy != 0 || eager != 0 {
		t.Errorf("defer: cells=%d defers=%d legacy=%d eager=%d", cells, defers, legacy, eager)
	}
	cells, defers, legacy, _ = run(gupcxx.Legacy2021_3_0)
	if cells != int64(ops) || defers != int64(ops) || legacy != int64(ops) {
		t.Errorf("legacy: cells=%d defers=%d legacy=%d", cells, defers, legacy)
	}
}

// TestProgressInternal: internal-level progress never readies local
// futures, while a peer restricted to internal progress still serves our
// requests.
func TestProgressInternal(t *testing.T) {
	cfg := gupcxx.Config{Ranks: 2, Conduit: gupcxx.SIM, SegmentBytes: 1 << 14}
	err := gupcxx.Launch(cfg, func(r *gupcxx.Rank) {
		p := gupcxx.New[int64](r)
		*p.Local(r) = int64(r.Me() + 40)
		ptrs := gupcxx.ExchangePtr(r, p)
		r.Barrier()
		switch r.Me() {
		case 0:
			f := gupcxx.Rget(r, ptrs[1])
			// Drive only internal progress for a while: the value
			// arrives (the reply sits held) but the future must not
			// ready.
			for i := 0; i < 2000; i++ {
				r.ProgressInternal()
			}
			if f.Ready() {
				t.Error("future readied by internal progress")
			}
			if got := f.Wait(); got != 41 {
				t.Errorf("value %d", got)
			}
		case 1:
			// Serve rank 0 with internal progress only until it finishes
			// (signaled via the barrier below — spin on internal +
			// occasional user poll for the barrier token itself).
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWaitInsideCallback: a Then callback that initiates and waits on a
// further (remote) operation must complete (nested progress polls the
// substrate).
func TestWaitInsideCallback(t *testing.T) {
	cfg := gupcxx.Config{Ranks: 2, Conduit: gupcxx.SIM, SegmentBytes: 1 << 14}
	err := gupcxx.Launch(cfg, func(r *gupcxx.Rank) {
		p := gupcxx.New[int64](r)
		ptrs := gupcxx.ExchangePtr(r, p)
		r.Barrier()
		if r.Me() == 0 {
			done := false
			// Off-node put; its (deferred-by-nature) completion runs a
			// callback that performs a blocking get.
			gupcxx.Rput(r, 9, ptrs[1]).Op.Then(func() {
				if got := gupcxx.Rget(r, ptrs[1]).Wait(); got != 9 {
					t.Errorf("nested get = %d", got)
				}
				done = true
			})
			for !done {
				r.Progress()
			}
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSymmetricWaitInsideCallback: both ranks wait, inside a put's
// completion callback, on a further put toward each other. Each rank
// applies the other's second put in a dispatch round nested in its own
// callback, and each wait ends only if that nested round answers it.
func TestSymmetricWaitInsideCallback(t *testing.T) {
	for _, c := range []gupcxx.Conduit{gupcxx.SIM, gupcxx.UDP} {
		t.Run(c.String(), func(t *testing.T) {
			cfg := gupcxx.Config{Ranks: 2, Conduit: c, SegmentBytes: 1 << 14}
			err := gupcxx.Launch(cfg, func(r *gupcxx.Rank) {
				a, b := gupcxx.New[int64](r), gupcxx.New[int64](r)
				as, bs := gupcxx.ExchangePtr(r, a), gupcxx.ExchangePtr(r, b)
				peer := 1 - r.Me()
				r.Barrier()
				done := false
				gupcxx.Rput(r, 1, as[peer]).Op.Then(func() {
					gupcxx.Rput(r, 2, bs[peer]).Wait()
					done = true
				})
				for !done {
					r.Progress()
				}
				r.Barrier()
				if *a.Local(r) != 1 || *b.Local(r) != 2 {
					t.Errorf("rank %d holds %d, %d, want 1, 2", r.Me(), *a.Local(r), *b.Local(r))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSymmetricRPCBodiesWait: each rank puts to the other without
// waiting, then sends it an RPC whose body blocks on a put back to the
// sender. The round that runs a body may still hold the sender's first
// put behind the RPC; the body's nested rounds dispatch it in arrival
// order and answer. Both RPCs complete and every put lands.
func TestSymmetricRPCBodiesWait(t *testing.T) {
	for _, c := range []gupcxx.Conduit{gupcxx.SIM, gupcxx.UDP} {
		t.Run(c.String(), func(t *testing.T) {
			cfg := gupcxx.Config{Ranks: 2, Conduit: c, SegmentBytes: 1 << 14}
			err := gupcxx.Launch(cfg, func(r *gupcxx.Rank) {
				a, b := gupcxx.New[int64](r), gupcxx.New[int64](r)
				as, bs := gupcxx.ExchangePtr(r, a), gupcxx.ExchangePtr(r, b)
				peer := 1 - r.Me()
				r.Barrier()
				first := gupcxx.Rput(r, 1, as[peer])
				gupcxx.RPC(r, peer, func(tr *gupcxx.Rank) {
					gupcxx.Rput(tr, 2, bs[1-tr.Me()]).Wait()
				}).Wait()
				first.Wait()
				r.Barrier()
				if *a.Local(r) != 1 || *b.Local(r) != 2 {
					t.Errorf("rank %d holds %d, %d, want 1, 2", r.Me(), *a.Local(r), *b.Local(r))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWorldStatsAggregation: the aggregate counters reflect the cost
// model across all ranks.
func TestWorldStatsAggregation(t *testing.T) {
	w, err := gupcxx.NewWorld(gupcxx.Config{Ranks: 2, Conduit: gupcxx.PSHM, SegmentBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(r *gupcxx.Rank) {
		p := gupcxx.New[int64](r)
		ptrs := gupcxx.ExchangePtr(r, p)
		r.Barrier()
		gupcxx.Rput(r, 1, ptrs[(r.Me()+1)%r.N()]).Wait()
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.EagerDeliveries != 2 {
		t.Errorf("EagerDeliveries = %d, want 2 (one per rank)", st.EagerDeliveries)
	}
	if st.DeferQPushes != 0 {
		t.Errorf("DeferQPushes = %d", st.DeferQPushes)
	}
	if st.ProgressCalls == 0 {
		t.Error("no progress recorded")
	}
}
