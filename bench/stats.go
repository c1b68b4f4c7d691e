package main

import (
	"math"
	"math/bits"
	"sort"
)

// summary is the order statistics of one metric over a run's passes (or
// over several runs): the median is the reported value, the quartiles its
// spread, n the sample count.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize computes the median and quartiles of v. The quartiles follow
// Python's statistics.quantiles(v, n=4) (the "exclusive" method), so a
// spread computed here is the spread the driver computes.
func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{N: 1, Median: s[0], Q1: s[0], Q3: s[0]}
	}
	return summary{N: n, Median: quartile(s, 2), Q1: quartile(s, 1), Q3: quartile(s, 3)}
}

// quartile returns the i-th of the three cut points dividing sorted s
// (len >= 2) into four equal-probability groups.
func quartile(s []float64, i int) float64 {
	const q = 4
	n := len(s)
	m := n + 1
	j := i * m / q
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(i*m - j*q)
	return (s[j-1]*(q-delta) + s[j]*delta) / q
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// tailLadder lists the tail percentiles a latency report may quote, lowest
// first, each with the number of samples of which one lies beyond it.
var tailLadder = []struct {
	p     float64
	oneIn int64
}{{0.90, 10}, {0.95, 20}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

// tailPercentile returns the highest percentile of tailLadder that still
// has at least ten of n samples beyond it, or 0 when even the lowest has
// not: a p99 quoted from 200 samples is two observations.
func tailPercentile(n int64) float64 {
	best := 0.0
	for _, t := range tailLadder {
		if n >= 10*t.oneIn {
			best = t.p
		}
	}
	return best
}

// hist is a fixed-size log-linear latency histogram (64 linear
// sub-buckets per power of two, so a reported percentile is within 1.6 %
// of the sample it stands for). Recording is one index computation and
// one increment, with no allocation: the in-process workloads record
// millions of samples a second.
type hist struct {
	counts [histBuckets]int64
	n      int64
	sum    int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 - histSubBits // >= 0
	return (exp+1)*histSub + int(v>>uint(exp))&(histSub-1)
}

// histLower is the smallest value mapped to bucket i.
func histLower(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	exp := i/histSub - 1
	return (int64(histSub) + int64(i%histSub)) << uint(exp)
}

func (h *hist) record(ns int64) {
	h.counts[histIndex(ns)]++
	h.n++
	h.sum += ns
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the value at rank p (0..1) of the recorded samples,
// interpolated linearly inside its bucket.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := float64(histLower(i)), float64(histLower(i+1))
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(histLower(histBuckets - 1))
}

// pow2Quantile reads rank p out of a power-of-two bucketed histogram (the
// runtime's obs.Hist: bucket i holds values up to 2^i ns), interpolating
// inside the bucket. It returns 0 for an empty histogram.
func pow2Quantile(count int64, bucket func(i int) int64, nBuckets int, p float64) float64 {
	if count == 0 {
		return 0
	}
	rank := p * float64(count)
	var seen float64
	for i := 0; i < nBuckets; i++ {
		c := float64(bucket(i))
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			hi := float64(int64(1) << uint(i))
			lo := hi / 2
			if i == 0 {
				lo = 0
			}
			return lo + (hi-lo)*(rank-seen)/c
		}
		seen += c
	}
	return float64(int64(1) << uint(nBuckets-1))
}
