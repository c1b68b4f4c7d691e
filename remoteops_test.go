package gupcxx_test

import (
	"testing"

	"gupcxx"
)

// TestRemoteOpAllocations pins the allocation cost of every remote op
// family on the asynchronous path, on a SIM world (in-memory AM ring) and
// on a process pair (two UDP worlds in this process). Every remote op
// registers the pipeline's cached done callback plus the destination its
// reply lands in, so the only allocation left is a future's cell: at most
// 1 per op with a future, 0 with a promise or a continuation — and 0 per
// batch of 512 xors under one promise. The value forms (Rget, FetchAdd)
// have no continuation form; their promise is allocated before the
// measurement, as a caller would hold it.
//
// The counts are process-wide, so they include the target's handling and
// the socket reader goroutines. AllocsPerRun runs with GOMAXPROCS 1, so
// the target half waits in a barrier, which parks, rather than spinning on
// Progress.
func TestRemoteOpAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	t.Run("sim", func(t *testing.T) {
		w, err := gupcxx.NewWorld(gupcxx.Config{
			Ranks: 2, Conduit: gupcxx.SIM, Version: gupcxx.Eager2021_3_6,
			SegmentBytes: 1 << 12, RanksPerNode: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if err := w.Run(func(r *gupcxx.Rank) { remoteOpAllocs(t, r) }); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("process-pair", func(t *testing.T) {
		// The bound is a clean wire's: the fault profile of make
		// test-loss copies each datagram it holds back for reordering.
		t.Setenv("GUPCXX_UDP_FAULT", "")
		ws := newProcessPair(t)
		defer ws[0].Close()
		defer ws[1].Close()
		errs := make(chan error, len(ws))
		for _, w := range ws {
			go func() { errs <- w.Run(func(r *gupcxx.Rank) { remoteOpAllocs(t, r) }) }()
		}
		for range ws {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
	})
}

// remoteOpAllocs measures rank 0's ops on rank 1's words while rank 1
// waits in the closing barrier.
func remoteOpAllocs(t *testing.T, r *gupcxx.Rank) {
	const warm, runs = 64, 200
	words := gupcxx.ExchangePtr(r, gupcxx.New[uint64](r))
	fwords := gupcxx.ExchangePtr(r, gupcxx.New[float64](r))
	r.Barrier()
	defer r.Barrier()
	if r.Me() != 0 {
		return
	}
	dst, fdst := words[1], fwords[1]
	ad := gupcxx.NewAtomicDomain[uint64](r)
	fd := gupcxx.NewAtomicDomainF64(r)

	// Everything an op writes through or registers lives outside the
	// measured closures, as it would in a caller's loop.
	var buf [4]uint64
	var old, sink uint64
	pr := r.NewPromise()
	prx := []gupcxx.Cx{gupcxx.OpPromise(pr)}
	fired, issued := 0, 0
	cont := []gupcxx.Cx{gupcxx.OpContinue(func(err error) {
		if err != nil {
			t.Errorf("continuation failed: %v", err)
		}
		fired++
	})}
	awaitPromise := func() {
		for pr.Pending() > 1 {
			r.Serve()
		}
	}
	awaitCont := func() {
		issued++
		for fired < issued {
			r.Serve()
		}
	}
	pvs := make([]*gupcxx.PromiseV[uint64], 2*(warm+runs+1))
	for i := range pvs {
		pvs[i] = gupcxx.NewPromiseV[uint64](r)
	}
	nextPV := func() *gupcxx.PromiseV[uint64] {
		pv := pvs[0]
		pvs = pvs[1:]
		return pv
	}

	cases := []struct {
		name  string
		bound float64
		op    func()
	}{
		{"put/future", 1, func() { gupcxx.Rput(r, 1, dst).Wait() }},
		{"put/promise", 0, func() { gupcxx.Rput(r, 1, dst, prx...); awaitPromise() }},
		{"put/continuation", 0, func() { gupcxx.Rput(r, 1, dst, cont...); awaitCont() }},
		{"get/future", 1, func() { sink += gupcxx.Rget(r, dst).Wait() }},
		{"get/promise", 0, func() {
			pv := nextPV()
			gupcxx.RgetPromise(r, dst, pv)
			sink += pv.Finalize().Wait()
		}},
		{"rgetbulk/future", 1, func() { gupcxx.RgetBulk(r, dst, buf[:]).Wait() }},
		{"rgetbulk/promise", 0, func() { gupcxx.RgetBulk(r, dst, buf[:1], prx...); awaitPromise() }},
		{"rgetbulk/continuation", 0, func() { gupcxx.RgetBulk(r, dst, buf[:1], cont...); awaitCont() }},
		{"add/future", 1, func() { ad.Add(dst, 1).Wait() }},
		{"add/promise", 0, func() { ad.Add(dst, 1, prx...); awaitPromise() }},
		{"add/continuation", 0, func() { ad.Add(dst, 1, cont...); awaitCont() }},
		{"fetchadd/future", 1, func() { sink += ad.FetchAdd(dst, 1).Wait() }},
		{"fetchadd/promise", 0, func() {
			pv := nextPV()
			ad.FetchAddPromise(dst, 1, pv)
			sink += pv.Finalize().Wait()
		}},
		{"fetchaddinto/future", 1, func() { ad.FetchAddInto(dst, 1, &old).Wait() }},
		{"fetchaddinto/promise", 0, func() { ad.FetchAddInto(dst, 1, &old, prx...); awaitPromise() }},
		{"fetchaddinto/continuation", 0, func() { ad.FetchAddInto(dst, 1, &old, cont...); awaitCont() }},
		{"f64add/future", 1, func() { fd.Add(fdst, 0.5).Wait() }},
		{"f64add/promise", 0, func() { fd.Add(fdst, 0.5, prx...); awaitPromise() }},
		{"f64add/continuation", 0, func() { fd.Add(fdst, 0.5, cont...); awaitCont() }},
		// The xproc_gups shape: a batch of 512 non-fetching xors under one
		// promise, completed by cumulative replies. The bound is per batch.
		{"xor512/promise", 0, func() {
			for i := range 512 {
				ad.Xor(dst, uint64(i), prx...)
			}
			awaitPromise()
		}},
	}
	for _, c := range cases {
		for i := 0; i < warm; i++ {
			c.op()
		}
		avg := testing.AllocsPerRun(runs, c.op)
		t.Logf("%s: %.0f objects/op", c.name, avg)
		if avg > c.bound {
			t.Errorf("remote %s allocates %.0f objects/op, want <= %.0f", c.name, avg, c.bound)
		}
	}
	if err := pr.Finalize().WaitErr(); err != nil {
		t.Errorf("promise: %v", err)
	}
	benchSinkU64 = sink + old
}
