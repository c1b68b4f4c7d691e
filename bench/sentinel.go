package main

import (
	"encoding/binary"
	"math"
	"time"

	"gupcxx"
)

// The host this benchmark runs on is shared: for seconds at a time a
// neighbour on the same physical core slows a vCPU to almost half its
// speed (measured: a plain Go loop at 1.8 ns or 3.3 ns per iteration,
// thread CPU time equal to wall time in both states, the slow state taking
// anything from a tenth to nine tenths of a quarter of an hour). A run
// that is a median over everything therefore reports one of two numbers
// 1.75x apart, depending on which state held for more than half of it.
//
// So every run is cut into slices of about ten milliseconds, a sentinel — a
// fixed kernel of plain Go, 20 us — is timed at every slice boundary on
// the core of each rank that is busy during the slice, and only slices
// whose boundary readings are all within quietFactor of the fastest
// reading of the run count: the program is measured while the host leaves
// its cores alone. What share of the run that was is reported.

var sentinelSink uint64

var sentinelTab [512]uint64

// sentinel times the kernel on the calling thread and returns nanoseconds:
// independent integer chains and a store into a 4 KiB table, code whose
// speed, like that of the runtime's own paths, drops when a sibling
// hardware thread competes for the core's issue slots.
func sentinel() float64 {
	const iters = 10_000
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	t := time.Now()
	for i := 0; i < iters; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b ^= b << 13
		b ^= b >> 7
		c += a ^ b
		d = d*3 + c
		sentinelTab[(a>>33)&511] ^= d
	}
	el := time.Since(t)
	sentinelSink += a + b + c + d
	return float64(el)
}

// sentinelHandler is the registered RPC that reads the sentinel on the
// target rank's goroutine, so on its core.
func sentinelHandler(_ *gupcxx.Rank, _ []byte) []byte {
	return binary.LittleEndian.AppendUint64(nil, math.Float64bits(sentinel()))
}

// quietFactor is how far above the run's fastest sentinel reading a
// reading may be for the core to count as undisturbed. Undisturbed
// readings lie within 8 % of each other; a disturbed core reads 1.3 to
// 2 times slower.
const quietFactor = 1.10

// minQuietSlices is the least number of quiet slices a median is taken
// over. With fewer the host was never quiet long enough to say what a quiet
// run looks like, and all slices count.
const minQuietSlices = 5

// gate holds the sentinel readings at the boundaries of a sequence of
// slices: slice i lies between readings i and i+1.
type gate struct {
	local  []float64 // on the measuring rank's core
	remote []float64 // on rank 1's core; empty when rank 1 is idle during the slices
}

// read takes the readings of one boundary. Rank 1's is fetched by RPC when
// it serves every op of the load (across simulated nodes or processes); on
// a co-located target every op completes on rank 0's core alone.
func (g *gate) read(s *session) {
	g.local = append(g.local, sentinel())
	if s.spec.Kind != kindPSHM {
		g.remote = append(g.remote, s.remoteSentinel())
	}
}

func (s *session) remoteSentinel() float64 {
	reply, err := gupcxx.RPCWire(s.r, 1, s.sentinelRPC, nil).WaitErr()
	if err != nil || len(reply) != 8 {
		return math.Inf(1) // never quiet
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(reply))
}

// quiet reports, per slice, whether every reading at both its boundaries
// was within quietFactor of the fastest reading on that core, and the
// share of slices for which that held. If fewer than minQuietSlices
// qualify, every slice is kept and ok is false.
func (g *gate) quiet() (keep []bool, share float64, ok bool) {
	n := len(g.local) - 1
	if n < 1 {
		return nil, 0, false
	}
	keep = make([]bool, n)
	for i := range keep {
		keep[i] = true
	}
	for _, readings := range [][]float64{g.local, g.remote} {
		if len(readings) == 0 {
			continue
		}
		limit := quietFactor * minOf(readings)
		for i := range keep {
			keep[i] = keep[i] && readings[i] <= limit && readings[i+1] <= limit
		}
	}
	kept := 0
	for _, k := range keep {
		if k {
			kept++
		}
	}
	share = float64(kept) / float64(n)
	if kept < minQuietSlices {
		for i := range keep {
			keep[i] = true
		}
		return keep, share, false
	}
	return keep, share, true
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}

// pick returns the elements of v whose slice is kept.
func pick(v []float64, keep []bool) []float64 {
	out := make([]float64, 0, len(v))
	for i, x := range v {
		if keep[i] {
			out = append(out, x)
		}
	}
	return out
}

func dropNaN(v []float64) []float64 {
	out := v[:0]
	for _, x := range v {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}
