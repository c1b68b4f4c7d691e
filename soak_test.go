package gupcxx_test

import (
	"errors"
	"os"
	"strconv"
	"testing"
	"time"

	"gupcxx"
)

// soakSeconds reads the soak duration from GUPCXX_SOAK_SECONDS. The
// default is a short smoke pass so plain `go test ./...` stays fast; the
// Makefile's test-soak target runs the full 30 seconds.
func soakSeconds() time.Duration {
	if s := os.Getenv("GUPCXX_SOAK_SECONDS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return time.Duration(n) * time.Second
		}
	}
	return 2 * time.Second
}

// TestSoakMixedChurn drives every op family — wire RPC, closure RPC, RMA,
// remote atomics, collectives — concurrently from four ranks over a lossy
// UDP conduit with a deliberately small send window, for long enough that
// retransmission, adaptive-window, and admission paths all cycle many
// times. The invariants are the robustness contract, not throughput:
// every initiated operation resolves with its value or a typed error
// (backpressure is the only error budgeted under loss), the world tears
// down without wedged goroutines, and the reliability layer demonstrably
// did its job (retransmits occurred, reorder memory stayed bounded).
func TestSoakMixedChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped under -short")
	}
	defer leakCheck(t)()
	cfg := gupcxx.Config{
		Ranks: 4, Conduit: gupcxx.UDP, SegmentBytes: 1 << 16,
		RelWindow:        8, // tiny window: starvation and AIMD cycling are the point
		RelWindowMin:     4,
		BackpressureWait: 50 * time.Millisecond,
	}
	// A GUPCXX_UDP_FAULT profile in the environment (the Makefile sets 25%
	// drop) takes effect only when Config.Fault is nil; absent the env
	// var, inject the same loss rate here so the soak is lossy either way.
	if os.Getenv("GUPCXX_UDP_FAULT") == "" {
		cfg.Fault = &gupcxx.FaultConfig{Seed: 99, Drop: 0.25}
	}
	w, err := gupcxx.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	echo := w.RegisterRPC(func(r *gupcxx.Rank, args []byte) []byte {
		return append([]byte(nil), args...)
	})

	// Operations-plane rider: one deliberately slow subscriber drains the
	// event bus on a ~20ms cadence for the whole soak. Flow-control churn
	// emits edge events (one per backpressure/window episode), not per-op
	// floods, so even this laggard must keep up — the bus sheds nothing.
	sub := w.SubscribeEvents()
	defer sub.Close()
	evKinds := make(map[string]int)
	drainDone := make(chan struct{})
	drainStop := make(chan struct{})
	go func() {
		defer close(drainDone)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		var buf []gupcxx.RuntimeEvent
		for {
			select {
			case <-drainStop:
				for _, ev := range sub.Poll(buf) {
					evKinds[ev.Kind.String()]++
				}
				return
			case <-tick.C:
				for _, ev := range sub.Poll(buf) {
					evKinds[ev.Kind.String()]++
				}
			}
		}
	}()

	dur := soakSeconds()
	err = w.Run(func(r *gupcxx.Rank) {
		me, n := r.Me(), r.N()
		ptr := gupcxx.New[int64](r)
		ptrs := gupcxx.ExchangePtr(r, ptr)
		ad := gupcxx.NewAtomicDomain[int64](r)
		ctr := gupcxx.New[int64](r)
		ctrs := gupcxx.ExchangePtr(r, ctr)

		// accept records an op outcome against the soak contract: success
		// and backpressure are the only acceptable results under loss.
		fails := 0
		accept := func(what string, err error) {
			if err != nil && !errors.Is(err, gupcxx.ErrBackpressure) {
				if fails < 5 { // don't flood the log from a tight loop
					t.Errorf("rank %d: %s resolved %v, want value or ErrBackpressure", me, what, err)
				}
				fails++
			}
		}

		end := time.Now().Add(dur)
		for round := 0; ; round++ {
			peer := (me + 1 + round%(n-1)) % n

			// Pipelined wire-RPC burst: more calls outstanding than the
			// window has slots, so admission must cycle between credits
			// and bounded refusal while retransmission churns underneath.
			futs := make([]gupcxx.FutureV[[]byte], 0, 12)
			for i := 0; i < 12; i++ {
				futs = append(futs, gupcxx.RPCWire(r, peer, echo, []byte{byte(round), byte(i)}))
			}
			for i, f := range futs {
				got, werr := f.WaitErr()
				accept("wire RPC", werr)
				if werr == nil && (len(got) != 2 || got[0] != byte(round) || got[1] != byte(i)) {
					t.Errorf("rank %d: echo corrupted: % x", me, got)
					fails++
				}
			}

			// One RMA round trip and one remote atomic per round.
			res := gupcxx.Rput(r, int64(round), ptrs[peer], gupcxx.OpFuture())
			accept("rput", res.Op.WaitErr())
			_, gerr := gupcxx.Rget(r, ptrs[peer]).WaitErr()
			accept("rget", gerr)
			accept("atomic add", ad.Add(ctrs[peer], 1).Op.WaitErr())

			// Closure RPC still consults admission toward the peer.
			accept("closure RPC", gupcxx.RPC(r, peer, func(*gupcxx.Rank) {}).WaitErr())

			// Periodic collectives keep the all-to-all paths in the mix, and
			// decide together when to stop: a rank that left on its own
			// clock would strand the others in the next one.
			if round%64 == 63 {
				if sum := r.SumU64(1); sum != uint64(n) {
					t.Errorf("rank %d: SumU64(1) = %d over %d ranks", me, sum, n)
					fails++
				}
				done := uint64(0)
				if !time.Now().Before(end) || fails > 0 {
					done = 1
				}
				if r.SumU64(done) > 0 {
					break
				}
			}
		}
		// Converge before teardown: a rank that errored out early still
		// participates so its peers' final collective cannot wedge.
		r.Barrier()
		if v := gupcxx.Rget(r, ctr).Wait(); v < 0 {
			t.Errorf("rank %d: counter went negative: %d", me, v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	close(drainStop)
	<-drainDone
	if d := sub.Dropped(); d != 0 {
		t.Errorf("slow event subscriber shed %d events during the soak", d)
	}
	evTotal := 0
	for _, n := range evKinds {
		evTotal += n
	}
	t.Logf("soak events: %d drained by the slow subscriber, by kind: %v", evTotal, evKinds)
	st := w.Domain().Stats()
	if st.Retransmits == 0 {
		t.Error("soak saw zero retransmits: the loss profile was not applied")
	}
	t.Logf("soak %v: retransmits=%d rtoExpirations=%d windowShrinks=%d windowGrows=%d backpressureFails=%d shedBytes=%d",
		dur, st.Retransmits, st.RTOExpirations, st.WindowShrinks, st.WindowGrows,
		st.BackpressureFails, st.ShedBytes)
}
