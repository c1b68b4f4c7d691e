package gupcxx_test

// The memory-model contract of bulk RMA (DESIGN.md §5), pinned as idioms
// that must stay clean under `go test -race`. A bulk transfer is a plain
// memory copy — on the initiator's goroutine when the target is
// co-located, on the target's when it crosses the conduit — and is
// ordered by nothing of its own. Each test names the edge that publishes
// it; only an aligned 8-byte put/get/AMO is atomic in itself.
//
// The negative example, kept as a comment because the detector (rightly)
// fails it and a test would have to t.Skip under -race to stay green:
//
//	rank 0:  gupcxx.RputBulk(r, src, data)       // no Wait, no flag
//	rank 1:  for data.LocalSlice(r, n)[n-1] == 0 {} // plain read, spinning
//
// Rank 1's plain read conflicts with rank 0's copy and nothing orders
// them: a user data race, exactly as in UPC++. Spinning on a data word
// with an atomic load does not repair it either — that orders the one
// word, not the rest of the block.

import (
	"sync/atomic"
	"testing"

	"gupcxx"
)

const (
	idiomWords  = 128 // 1 KiB: the bulk size the benchmark's op mix uses
	idiomRounds = 20
)

// idiomWorlds are the three data paths a bulk transfer can take: the
// eager shim on PSHM, the same shim with the UDP wire armed (in-process
// UDP resolves locality to memory), and the target-side AM handlers on
// SIM (one rank per node).
var idiomWorlds = []struct {
	name string
	cfg  gupcxx.Config
}{
	{"pshm", gupcxx.Config{Conduit: gupcxx.PSHM}},
	{"udp", gupcxx.Config{Conduit: gupcxx.UDP}},
	{"sim", gupcxx.Config{Conduit: gupcxx.SIM, SimLatency: 1}},
}

// idiomPattern is round's payload; every word differs from every other
// round's, so a stale or torn block cannot pass for the current one.
func idiomPattern(round int) []uint64 {
	p := make([]uint64, idiomWords)
	for i := range p {
		p[i] = uint64(round)<<32 | uint64(i+1)
	}
	return p
}

func checkBlock(t *testing.T, what string, round int, got []uint64) {
	t.Helper()
	want := idiomPattern(round)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s, round %d: word %d = %#x, want %#x", what, round, i, got[i], want[i])
			return
		}
	}
}

// runIdiom launches a two-rank world per data path; body runs on both
// ranks with rank 1's data block and flag word (zeroed, published).
func runIdiom(t *testing.T, body func(r *gupcxx.Rank, data, flag gupcxx.GlobalPtr[uint64])) {
	for _, w := range idiomWorlds {
		t.Run(w.name, func(t *testing.T) {
			cfg := w.cfg
			cfg.Ranks, cfg.SegmentBytes = 2, 1<<14
			err := gupcxx.Launch(cfg, func(r *gupcxx.Rank) {
				data := gupcxx.ExchangePtr(r, gupcxx.NewArray[uint64](r, idiomWords))[1]
				flag := gupcxx.ExchangePtr(r, gupcxx.New[uint64](r))[1]
				r.Barrier()
				body(r, data, flag)
				r.Barrier()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestIdiomBulkPutBarrierRead: operation completion, then a barrier. The
// barrier is the edge: everything rank 0 completed before entering it
// happens-before everything rank 1 does after leaving it.
func TestIdiomBulkPutBarrierRead(t *testing.T) {
	runIdiom(t, func(r *gupcxx.Rank, data, _ gupcxx.GlobalPtr[uint64]) {
		for round := 1; round <= idiomRounds; round++ {
			if r.Me() == 0 {
				gupcxx.RputBulk(r, idiomPattern(round), data).Wait()
			}
			r.Barrier()
			if r.Me() == 1 {
				checkBlock(t, "plain read after barrier", round, data.LocalSlice(r, idiomWords))
			}
			r.Barrier() // the read is over before the next round's put
		}
	})
}

// TestIdiomBulkPutFlagRead: operation completion, then an 8-byte flag
// put. The word-atomic flag store is the release, the target's atomic
// load of the flag the acquire; the data behind it is read plainly.
func TestIdiomBulkPutFlagRead(t *testing.T) {
	runIdiom(t, func(r *gupcxx.Rank, data, flag gupcxx.GlobalPtr[uint64]) {
		for round := 1; round <= idiomRounds; round++ {
			if r.Me() == 0 {
				gupcxx.RputBulk(r, idiomPattern(round), data).Wait()
				gupcxx.Rput(r, uint64(round), flag).Wait()
			} else {
				for atomic.LoadUint64(flag.Local(r)) != uint64(round) {
					r.Progress() // off-node, the put lands in this rank's handlers
				}
				checkBlock(t, "plain read behind the flag", round, data.LocalSlice(r, idiomWords))
			}
			r.Barrier()
		}
	})
}

// TestIdiomBulkGetAfterCompletion: the producer's completion future is
// the edge for its own later accesses — a bulk get issued after the put's
// future readied returns the put's bytes, into a buffer read plainly.
func TestIdiomBulkGetAfterCompletion(t *testing.T) {
	runIdiom(t, func(r *gupcxx.Rank, data, _ gupcxx.GlobalPtr[uint64]) {
		if r.Me() != 0 {
			return // rank 1 serves progress from the closing barrier
		}
		back := make([]uint64, idiomWords)
		for round := 1; round <= idiomRounds; round++ {
			gupcxx.RputBulk(r, idiomPattern(round), data).Wait()
			gupcxx.RgetBulk(r, data, back).Wait()
			checkBlock(t, "bulk get after put completion", round, back)
		}
	})
}
