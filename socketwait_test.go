package gupcxx_test

import (
	"sync/atomic"
	"testing"

	"gupcxx"
	"gupcxx/internal/gasnet"
)

// A UDP rank's socket has one reader at a time, and it is whoever waits
// (DESIGN.md §7.1): the owner blocks in its own socket when it parks and
// reads what is queued when it polls an empty inbox, and the reliability
// ticker drains the socket only for a rank that does neither. These tests
// pin both halves on a process pair.

// TestWaiterReadsOwnSocket: rank 0 makes 2,000 blocking ops on rank 1's
// word while rank 1 answers them from a barrier wait. Both ranks spend
// their idle time waiting in their sockets, so the datagrams of the ops
// are read by the ranks that wait for them: the tickers read at most 1 %
// of them (Stats.TickReads, which also counts any heartbeat a ticker
// read).
func TestWaiterReadsOwnSocket(t *testing.T) {
	ws := newProcessPair(t)
	defer ws[0].Close()
	defer ws[1].Close()
	join := func(r *gupcxx.Rank) []gupcxx.GlobalPtr[uint64] {
		words := gupcxx.ExchangePtr(r, gupcxx.New[uint64](r))
		r.Barrier()
		return words
	}
	served := make(chan error, 1)
	go func() {
		served <- ws[1].Run(func(r *gupcxx.Rank) {
			join(r)
			r.Barrier() // rank 1 answers rank 0's ops from this wait
		})
	}()
	const ops = 2000
	var before [2]gasnet.Stats
	err := ws[0].Run(func(r *gupcxx.Rank) {
		dst := join(r)[1]
		defer r.Barrier()
		ad := gupcxx.NewAtomicDomain[uint64](r)
		for i, w := range ws {
			before[i] = w.Domain().Stats()
		}
		for i := 0; i < ops; i++ {
			var err error
			switch i % 4 {
			case 0:
				err = gupcxx.Rput(r, uint64(i), dst).Op.WaitErr()
			case 1:
				_, err = gupcxx.Rget(r, dst).WaitErr()
			case 2:
				_, err = ad.FetchAdd(dst, 1).WaitErr()
			default:
				err = ad.Add(dst, 1).Op.WaitErr()
			}
			if err != nil {
				t.Errorf("op %d: %v", i, err)
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	var sent, ticked int64
	for i, w := range ws {
		s := w.Domain().Stats()
		sent += s.DatagramsSent + s.Retransmits + s.AcksStandalone -
			before[i].DatagramsSent - before[i].Retransmits - before[i].AcksStandalone
		ticked += s.TickReads - before[i].TickReads
		if s.PeersDown != 0 {
			t.Errorf("rank %d declared %d peers down", i, s.PeersDown)
		}
	}
	t.Logf("%d ops: %d datagrams on the wire, %d read by the tickers", ops, sent, ticked)
	if sent < ops {
		t.Fatalf("%d datagrams for %d blocking ops", sent, ops)
	}
	if ticked*100 > sent {
		t.Errorf("the tickers read %d of %d datagrams, want at most 1 %%: the waiting ranks did not read their own sockets", ticked, sent)
	}
}

// TestComputingRankStillHears: a rank that computes without calling
// progress keeps hearing its peer through the ticker's drain of its
// socket. Rank 1 computes for 20 heartbeat rounds — twice the default
// SuspectAfter — while rank 0 sends it puts. Rank 1 does not suspect rank
// 0, and rank 0's in-flight window toward rank 1 drains while rank 1 is
// still computing: the acks left rank 1 without a progress call. The puts
// complete once rank 1 calls progress again.
func TestComputingRankStillHears(t *testing.T) {
	ws := newProcessPair(t)
	defer ws[0].Close()
	defer ws[1].Close()
	const rounds, batches, perBatch = 20, 8, 8
	join := func(r *gupcxx.Rank) []gupcxx.GlobalPtr[uint64] {
		words := gupcxx.ExchangePtr(r, gupcxx.New[uint64](r))
		r.Barrier()
		return words
	}
	var computing, computed atomic.Bool
	var ticked int64
	served := make(chan error, 1)
	go func() {
		served <- ws[1].Run(func(r *gupcxx.Rank) {
			join(r)
			d := ws[1].Domain()
			start := d.Stats()
			computing.Store(true)
			sink := 0
			for s := start; s.HeartbeatsSent < start.HeartbeatsSent+rounds; s = d.Stats() {
				for i := 0; i < 1<<12; i++ {
					sink += i * i
				}
			}
			computed.Store(true)
			s := d.Stats()
			ticked = s.TickReads - start.TickReads
			if got := d.LivenessState(1, 0); got != "alive" || s.PeersSuspected != 0 {
				t.Errorf("after %d heartbeat rounds without progress rank 1 sees rank 0 %s (%d suspicions), want alive (0)",
					rounds, got, s.PeersSuspected)
			}
			_ = sink
			r.Barrier()
		})
	}()
	err := ws[0].Run(func(r *gupcxx.Rank) {
		dst := join(r)[1]
		defer r.Barrier()
		for !computing.Load() {
			r.Serve()
		}
		pr := r.NewPromise()
		flow := func() int { return ws[0].Domain().FlowState(0, 1).InFlight }
		peak := 0
		for b := 0; b < batches; b++ {
			for i := 0; i < perBatch; i++ {
				gupcxx.Rput(r, uint64(b*perBatch+i), dst, gupcxx.OpPromise(pr))
			}
			r.Progress() // ships the batch
			peak = max(peak, flow())
		}
		drained := false
		for !computed.Load() {
			if flow() == 0 {
				drained = !computed.Load()
				break
			}
			r.Serve()
		}
		if peak == 0 {
			t.Errorf("no put was ever in flight")
		}
		if !drained {
			t.Errorf("%d of rank 0's frames (peak %d) were still in flight when rank 1 stopped computing; want the window drained before",
				flow(), peak)
		}
		if err := pr.Finalize().WaitErr(); err != nil {
			t.Errorf("puts: %v", err)
		}
		if v, err := gupcxx.Rget(r, dst).WaitErr(); err != nil || v != batches*perBatch-1 {
			t.Errorf("final word %d (%v), want %d", v, err, batches*perBatch-1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if ticked == 0 {
		t.Errorf("rank 1's ticker read nothing while it computed")
	}
	for i, w := range ws {
		if n := w.Domain().Stats().PeersSuspected; n != 0 {
			t.Errorf("rank %d suspected %d peers", i, n)
		}
	}
}
