package gupcxx_test

import (
	"sync/atomic"
	"testing"

	"gupcxx"
)

// pairWorld runs fn on rank 0 with a pointer into rank 1's segment.
func pairWorld(t *testing.T, cfg gupcxx.Config, fn func(r *gupcxx.Rank, remote gupcxx.GlobalPtr[int64])) {
	t.Helper()
	if cfg.Ranks == 0 {
		cfg.Ranks = 2
	}
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = 1 << 16
	}
	err := gupcxx.Launch(cfg, func(r *gupcxx.Rank) {
		p := gupcxx.New[int64](r)
		*p.Local(r) = 0
		ptrs := gupcxx.ExchangePtr(r, p)
		r.Barrier()
		if r.Me() == 0 {
			fn(r, ptrs[1])
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRputDefaultCompletion(t *testing.T) {
	pairWorld(t, gupcxx.Config{}, func(r *gupcxx.Rank, p gupcxx.GlobalPtr[int64]) {
		res := gupcxx.Rput(r, 99, p)
		if !res.Op.Valid() {
			t.Fatal("default completion should produce an op future")
		}
		res.Wait()
		if got := gupcxx.Rget(r, p).Wait(); got != 99 {
			t.Errorf("readback = %d", got)
		}
	})
}

func TestRputSourceAndOpFutures(t *testing.T) {
	pairWorld(t, gupcxx.Config{Conduit: gupcxx.PSHM}, func(r *gupcxx.Rank, p gupcxx.GlobalPtr[int64]) {
		res := gupcxx.Rput(r, 5, p, gupcxx.SourceFuture(), gupcxx.OpFuture())
		res.Source.Wait()
		res.Op.Wait()
	})
}

func TestRputUnrequestedFutureInvalid(t *testing.T) {
	pairWorld(t, gupcxx.Config{}, func(r *gupcxx.Rank, p gupcxx.GlobalPtr[int64]) {
		prom := r.NewPromise()
		res := gupcxx.Rput(r, 5, p, gupcxx.OpPromise(prom))
		if res.Op.Valid() {
			t.Error("Op future should be invalid when not requested")
		}
		prom.Finalize().Wait()
	})
}

func TestRputLPCCompletion(t *testing.T) {
	pairWorld(t, gupcxx.Config{}, func(r *gupcxx.Rank, p gupcxx.GlobalPtr[int64]) {
		ran := false
		prom := r.NewPromise()
		gupcxx.Rput(r, 5, p, gupcxx.OpLPC(func() { ran = true }), gupcxx.OpPromise(prom))
		if ran {
			t.Error("LPC ran at initiation")
		}
		prom.Finalize().Wait()
		r.Progress()
		if !ran {
			t.Error("LPC never ran")
		}
	})
}

// TestRemoteCompletionRPC: the remote_cx callback runs on the target rank
// after data arrival, for both co-located and cross-node targets.
func TestRemoteCompletionRPC(t *testing.T) {
	for _, conduit := range []gupcxx.Conduit{gupcxx.PSHM, gupcxx.SIM, gupcxx.UDP} {
		cfg := gupcxx.Config{Ranks: 2, Conduit: conduit, SegmentBytes: 1 << 16}
		var remote, checks atomic.Int64
		err := gupcxx.Launch(cfg, func(r *gupcxx.Rank) {
			p := gupcxx.New[int64](r)
			flag := gupcxx.New[int64](r)
			*flag.Local(r) = 0
			ptrs := gupcxx.ExchangePtr(r, p)
			flags := gupcxx.ExchangePtr(r, flag)
			r.Barrier()
			if r.Me() == 0 {
				target := ptrs[1]
				// The RPC body runs on rank 1: it can check the arrived
				// data via its own local pointer and set a local flag.
				gupcxx.Rput(r, 123, target,
					gupcxx.OpFuture(),
					gupcxx.RemoteRPC(func() {
						// runs on rank 1's progress goroutine
						remote.Add(1)
					}),
				).Wait()
				// Now instruct rank 1 via RPC to validate arrival order.
				ok := gupcxx.RPCCall(r, 1, func(tr *gupcxx.Rank) bool {
					checks.Add(1)
					return *ptrs[1].Local(tr) == 123
				}).Wait()
				if !ok {
					t.Errorf("%v: data not visible at target after op completion", conduit)
				}
				_ = flags
			}
			r.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		if n, c := remote.Load(), checks.Load(); n != 1 || c != 1 {
			t.Errorf("%v: remote completion ran %d times and the check RPC %d, want once each", conduit, n, c)
		}
	}
}

// TestRemoteCompletionRunsOnTarget verifies the remote callback executes
// on the target rank's goroutine (it can see target-rank state), exactly
// once — on UDP too, where it crosses the wire by handle.
func TestRemoteCompletionRunsOnTarget(t *testing.T) {
	for _, conduit := range []gupcxx.Conduit{gupcxx.PSHM, gupcxx.UDP} {
		cfg := gupcxx.Config{Ranks: 2, Conduit: conduit, SegmentBytes: 1 << 16}
		var runs atomic.Int64
		err := gupcxx.Launch(cfg, func(r *gupcxx.Rank) {
			p := gupcxx.New[int64](r)
			ptrs := gupcxx.ExchangePtr(r, p)
			r.Barrier()
			if r.Me() == 0 {
				seen := make(chan int, 1)
				gupcxx.Rput(r, 7, ptrs[1],
					gupcxx.OpFuture(),
					gupcxx.RemoteRPC(func() {
						if runs.Add(1) == 1 {
							seen <- 1
						}
					}),
				).Wait()
				// The remote rank must make progress for the RPC to run; it is
				// spinning at the barrier below, which drives its engine.
				<-seen
			}
			r.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := runs.Load(); n != 1 {
			t.Errorf("%v: remote completion ran %d times, want once", conduit, n)
		}
	}
}

func TestRgetModes(t *testing.T) {
	pairWorld(t, gupcxx.Config{Conduit: gupcxx.PSHM, Version: gupcxx.Eager2021_3_6},
		func(r *gupcxx.Rank, p gupcxx.GlobalPtr[int64]) {
			gupcxx.Rput(r, 31, p).Wait()
			fe := gupcxx.Rget(r, p, gupcxx.ModeEager)
			if !fe.Ready() {
				t.Error("eager local rget should be ready at initiation")
			}
			fd := gupcxx.Rget(r, p, gupcxx.ModeDefer)
			if fd.Ready() {
				t.Error("deferred rget ready at initiation")
			}
			if fe.Value() != 31 || fd.Wait() != 31 {
				t.Error("bad values")
			}
		})
}

func TestRgetPromise(t *testing.T) {
	for _, ver := range []gupcxx.Version{gupcxx.Defer2021_3_6, gupcxx.Eager2021_3_6} {
		pairWorld(t, gupcxx.Config{Version: ver, Conduit: gupcxx.PSHM},
			func(r *gupcxx.Rank, p gupcxx.GlobalPtr[int64]) {
				gupcxx.Rput(r, 17, p).Wait()
				pv := gupcxx.NewPromiseV[int64](r)
				gupcxx.RgetPromise(r, p, pv)
				if got := pv.Finalize().Wait(); got != 17 {
					t.Errorf("%s: promise value %d", ver.Name, got)
				}
			})
	}
}

func TestBulkTransfers(t *testing.T) {
	for _, conduit := range []gupcxx.Conduit{gupcxx.PSHM, gupcxx.SIM} {
		cfg := gupcxx.Config{Ranks: 2, Conduit: conduit, SegmentBytes: 1 << 18}
		err := gupcxx.Launch(cfg, func(r *gupcxx.Rank) {
			arr := gupcxx.NewArray[int64](r, 128)
			ptrs := gupcxx.ExchangePtr(r, arr)
			r.Barrier()
			if r.Me() == 0 {
				src := make([]int64, 128)
				for i := range src {
					src[i] = int64(i * 3)
				}
				gupcxx.RputBulk(r, src, ptrs[1]).Wait()
				dst := make([]int64, 128)
				gupcxx.RgetBulk(r, ptrs[1], dst).Wait()
				for i := range dst {
					if dst[i] != int64(i*3) {
						t.Fatalf("%v: dst[%d] = %d", conduit, i, dst[i])
					}
				}
				// Partial get with element arithmetic.
				part := make([]int64, 4)
				gupcxx.RgetBulk(r, ptrs[1].Element(10), part).Wait()
				if part[0] != 30 || part[3] != 39 {
					t.Errorf("%v: partial get %v", conduit, part)
				}
			}
			r.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSourceCompletionBufferReuse: after source completion the buffer may
// be clobbered without affecting the transfer.
func TestSourceCompletionBufferReuse(t *testing.T) {
	cfg := gupcxx.Config{Ranks: 2, Conduit: gupcxx.SIM, SegmentBytes: 1 << 16}
	err := gupcxx.Launch(cfg, func(r *gupcxx.Rank) {
		arr := gupcxx.NewArray[int64](r, 8)
		ptrs := gupcxx.ExchangePtr(r, arr)
		r.Barrier()
		if r.Me() == 0 {
			buf := []int64{1, 2, 3, 4, 5, 6, 7, 8}
			res := gupcxx.RputBulk(r, buf, ptrs[1], gupcxx.SourceFuture(), gupcxx.OpFuture())
			res.Source.Wait()
			for i := range buf {
				buf[i] = -1
			}
			res.Op.Wait()
			dst := make([]int64, 8)
			gupcxx.RgetBulk(r, ptrs[1], dst).Wait()
			if dst[0] != 1 || dst[7] != 8 {
				t.Errorf("buffer reuse corrupted put: %v", dst)
			}
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestListing1Semantics reproduces the paper's Listing 1: under deferred
// notification the Then callback must not run before the wait, even for a
// local target; under eager it runs during Then.
func TestListing1Semantics(t *testing.T) {
	check := func(ver gupcxx.Version, wantSync bool) {
		pairWorld(t, gupcxx.Config{Version: ver, Conduit: gupcxx.PSHM},
			func(r *gupcxx.Rank, p gupcxx.GlobalPtr[int64]) {
				ran := false
				f := gupcxx.Rput(r, 42, p).Op
				f2 := f.Then(func() { ran = true })
				if ran != wantSync {
					t.Errorf("%s: callback ran=%v at Then, want %v", ver.Name, ran, wantSync)
				}
				f2.Wait()
				if !ran {
					t.Errorf("%s: callback never ran", ver.Name)
				}
			})
	}
	check(gupcxx.Defer2021_3_6, false)
	check(gupcxx.Legacy2021_3_0, false)
	check(gupcxx.Eager2021_3_6, true)
}

// TestConjoiningLoopAcrossRanks: the §II-A conjoining idiom works across
// versions and both completes all puts.
func TestConjoiningLoop(t *testing.T) {
	for _, ver := range []gupcxx.Version{gupcxx.Legacy2021_3_0, gupcxx.Defer2021_3_6, gupcxx.Eager2021_3_6} {
		cfg := gupcxx.Config{Ranks: 2, Conduit: gupcxx.PSHM, Version: ver, SegmentBytes: 1 << 16}
		err := gupcxx.Launch(cfg, func(r *gupcxx.Rank) {
			arr := gupcxx.NewArray[int64](r, 10)
			ptrs := gupcxx.ExchangePtr(r, arr)
			r.Barrier()
			if r.Me() == 0 {
				f := r.MakeFuture()
				for i := 0; i < 10; i++ {
					f = r.WhenAll(f, gupcxx.Rput(r, int64(i), ptrs[1].Element(i)).Op)
				}
				f.Wait()
				got := make([]int64, 10)
				gupcxx.RgetBulk(r, ptrs[1], got).Wait()
				for i, v := range got {
					if v != int64(i) {
						t.Errorf("%s: slot %d = %d", ver.Name, i, v)
					}
				}
			}
			r.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrossNodePutGet(t *testing.T) {
	cfg := gupcxx.Config{Ranks: 4, Conduit: gupcxx.SIM, RanksPerNode: 2, SegmentBytes: 1 << 16}
	err := gupcxx.Launch(cfg, func(r *gupcxx.Rank) {
		p := gupcxx.New[int64](r)
		*p.Local(r) = int64(100 + r.Me())
		ptrs := gupcxx.ExchangePtr(r, p)
		r.Barrier()
		// Rank 0 reads everyone, writes everyone.
		if r.Me() == 0 {
			for tgt := 0; tgt < r.N(); tgt++ {
				if got := gupcxx.Rget(r, ptrs[tgt]).Wait(); got != int64(100+tgt) {
					t.Errorf("rget(%d) = %d", tgt, got)
				}
			}
			// Off-node futures are never ready at initiation.
			f := gupcxx.Rput(r, 7, ptrs[3])
			if f.Op.Ready() {
				t.Error("cross-node put future ready at initiation")
			}
			f.Wait()
			if got := gupcxx.Rget(r, ptrs[3]).Wait(); got != 7 {
				t.Errorf("cross-node readback = %d", got)
			}
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetsRejectRemoteCompletion(t *testing.T) {
	pairWorld(t, gupcxx.Config{}, func(r *gupcxx.Rank, p gupcxx.GlobalPtr[int64]) {
		for name, fn := range map[string]func(){
			"bulk": func() {
				var buf [1]int64
				gupcxx.RgetBulk(r, p, buf[:], gupcxx.RemoteRPC(func() {}))
			},
			"strided": func() {
				var buf [1]int64
				gupcxx.RgetStrided(r, p, gupcxx.Strided2D{Rows: 1, RunLen: 1, Stride: 1},
					buf[:], gupcxx.RemoteRPC(func() {}))
			},
			"indexed": func() {
				var buf [1]int64
				gupcxx.RgetIndexed(r, []gupcxx.GlobalPtr[int64]{p}, buf[:],
					gupcxx.RemoteRPC(func() {}))
			},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s get with remote cx should panic", name)
					}
				}()
				fn()
			}()
		}
	})
}
