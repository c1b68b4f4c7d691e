package gupcxx_test

import (
	"sync/atomic"
	"testing"

	"gupcxx"
)

// TestRPCVoidAndValue: each rank sends its neighbour one void RPC and one
// value RPC, and each body runs exactly once, on its target — on UDP too,
// where the closure crosses the wire by handle, under whatever fault
// preset the environment arms (make test-fault).
func TestRPCVoidAndValue(t *testing.T) {
	for _, conduit := range []gupcxx.Conduit{gupcxx.PSHM, gupcxx.SIM, gupcxx.UDP} {
		cfg := gupcxx.Config{Ranks: 3, Conduit: conduit, SegmentBytes: 1 << 12}
		var hits, calls [3]atomic.Int64
		err := gupcxx.Launch(cfg, func(r *gupcxx.Rank) {
			target := (r.Me() + 1) % r.N()
			gupcxx.RPC(r, target, func(tr *gupcxx.Rank) {
				hits[tr.Me()].Add(1)
			}).Wait()
			v := gupcxx.RPCCall(r, target, func(tr *gupcxx.Rank) string {
				calls[tr.Me()].Add(1)
				return "from " + string(rune('0'+tr.Me()))
			}).Wait()
			want := "from " + string(rune('0'+target))
			if v != want {
				t.Errorf("%v: rpc value %q, want %q", conduit, v, want)
			}
			r.Barrier()
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if h, c := hits[i].Load(), calls[i].Load(); h != 1 || c != 1 {
				t.Errorf("%v: rank %d ran %d void and %d value RPC bodies, want 1 each", conduit, i, h, c)
			}
		}
	}
}

func TestSelfRPCRunsAtProgressNotInline(t *testing.T) {
	err := gupcxx.Launch(gupcxx.Config{Ranks: 1, SegmentBytes: 1 << 12}, func(r *gupcxx.Rank) {
		ran := false
		f := gupcxx.RPC(r, 0, func(*gupcxx.Rank) { ran = true })
		if ran {
			t.Error("self-RPC ran inline at initiation")
		}
		f.Wait()
		if !ran {
			t.Error("self-RPC never ran")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRPCFireAndForget(t *testing.T) {
	cfg := gupcxx.Config{Ranks: 2, Conduit: gupcxx.PSHM, SegmentBytes: 1 << 14}
	err := gupcxx.Launch(cfg, func(r *gupcxx.Rank) {
		flag := gupcxx.New[int64](r)
		*flag.Local(r) = 0
		flags := gupcxx.ExchangePtr(r, flag)
		r.Barrier()
		if r.Me() == 0 {
			gupcxx.RPCFireAndForget(r, 1, func(tr *gupcxx.Rank) {
				// Store through the runtime (atomic word write) since
				// rank 0 concurrently polls the flag with Rget.
				gupcxx.Rput(tr, 1, flags[1]).Wait()
			})
			// No completion to wait on; poll the flag remotely.
			for gupcxx.Rget(r, flags[1]).Wait() != 1 {
			}
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRPCInitiatesCommunication: an RPC body may itself perform RMA on
// the target rank (nested progress restrictions permitting).
func TestRPCInitiatesCommunication(t *testing.T) {
	cfg := gupcxx.Config{Ranks: 2, Conduit: gupcxx.PSHM, SegmentBytes: 1 << 14}
	err := gupcxx.Launch(cfg, func(r *gupcxx.Rank) {
		cell := gupcxx.New[int64](r)
		*cell.Local(r) = 0
		cells := gupcxx.ExchangePtr(r, cell)
		r.Barrier()
		if r.Me() == 0 {
			// Ask rank 1 to rput into rank 0's cell (local for rank 1?
			// no — cross-rank but co-located, so synchronous there).
			gupcxx.RPC(r, 1, func(tr *gupcxx.Rank) {
				gupcxx.Rput(tr, 55, cells[0]).Wait()
			}).Wait()
			if *cells[0].Local(r) != 55 {
				t.Errorf("cell = %d", *cells[0].Local(r))
			}
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRPCChain: an RPC whose body fires an RPC back to the initiator.
func TestRPCChain(t *testing.T) {
	cfg := gupcxx.Config{Ranks: 2, Conduit: gupcxx.PSHM, SegmentBytes: 1 << 14}
	err := gupcxx.Launch(cfg, func(r *gupcxx.Rank) {
		got := gupcxx.New[int64](r)
		*got.Local(r) = 0
		gots := gupcxx.ExchangePtr(r, got)
		r.Barrier()
		if r.Me() == 0 {
			gupcxx.RPC(r, 1, func(r1 *gupcxx.Rank) {
				gupcxx.RPCFireAndForget(r1, 0, func(r0 *gupcxx.Rank) {
					*gots[0].Local(r0) = 77
				})
			}).Wait()
			// The return RPC lands during our progress; poll for it.
			for *gots[0].Local(r) != 77 {
				r.Progress()
			}
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
