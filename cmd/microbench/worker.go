package main

import (
	"fmt"
	"os"
	"time"

	"gupcxx"
	"gupcxx/internal/stats"
	"gupcxx/internal/worker"
)

// wireIterCap bounds per-sample iterations in worker mode: every
// operation is a real UDP round trip (tens of microseconds, not the
// nanoseconds of the in-process paths the default -iters is sized for),
// so the on-node default of a million would run for minutes.
const wireIterCap = 20_000

// maybeWorker runs this process as one rank of a gupcxxrun-launched
// world: per-operation latency of put/get/fetch-add against the next
// rank — real sockets, real kernels, the loopback-multiproc numbers to
// hold against the in-process UDP conduit. Rank 0 drives and
// reports; other ranks serve progress inside the closing barrier.
// Never returns when GUPCXX_WORLD is set.
func maybeWorker() {
	worker.Maybe("microbench", func(int) gupcxx.Config {
		return gupcxx.Config{SegmentBytes: 1 << 16}
	}, microbenchWorker)
}

func microbenchWorker(r *gupcxx.Rank) {
	n := *iters
	if n > wireIterCap {
		n = wireIterCap
	}
	target := gupcxx.New[uint64](r)
	targets := gupcxx.ExchangePtr(r, target)
	peer := targets[(r.Me()+1)%r.N()]
	r.Barrier()
	if r.Me() == 0 {
		fmt.Printf("microbench worker: %d ranks (process-per-rank), %d iters/sample, best %d of %d samples\n",
			r.N(), n, *topk, *samples)
		table := stats.NewTable("operation", "ns/op", "±")
		for _, o := range ops {
			o.run(r, peer, n/10+1) // warm up
			var durations []time.Duration
			for s := 0; s < *samples; s++ {
				start := time.Now()
				o.run(r, peer, n)
				durations = append(durations, time.Since(start))
			}
			sum := stats.Summarize(durations, *topk)
			spread := ""
			if sum.Mean > 0 {
				spread = fmt.Sprintf("%.0f%%", 100*float64(sum.StdDev)/float64(sum.Mean))
			}
			table.AddRow(o.name, fmt.Sprintf("%.0f", float64(sum.TopKMean)/float64(n)), spread)
		}
		table.Render(os.Stdout)
	}
	r.Barrier()
}
