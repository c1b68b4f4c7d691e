package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestMain(m *testing.M) {
	// Process-world workloads re-execute this binary as rank 1.
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesDeclarations holds BENCHMARK.json and the Go
// declarations together.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %d", m.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("paths %v", m.Paths)
	}
	if len(m.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads declared, %d defined", len(m.Workloads), len(workloadDefs))
	}
	for i, w := range m.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: manifest has %q / %q, code has %q / %q", i, w.Name, w.Why, workloadDefs[i].name, workloadDefs[i].why)
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nmanifest %v\ncode     %v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nmanifest %v\ncode     %v", m.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestSmokeAllWorkloads runs every workload for a tenth of a second,
// untraced and traced, and checks that each run emits exactly the declared
// metrics, all finite, and passes every correctness gate.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	out := t.TempDir()
	for _, def := range workloadDefs {
		for _, trace := range []bool{false, true} {
			res := runWorkload(def, runConfig{seed: 1, seconds: 0.1, passSec: 0.05, trace: trace, outDir: out})
			name := def.name
			decls := endToEnd
			if trace {
				name += "/traced"
				decls = perLayer
			}
			for _, p := range res.Problems {
				t.Errorf("%s: %s", name, p)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%s: %d metrics emitted, %d declared", name, len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				v, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s: metric %s not emitted", name, d.Name)
				} else if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: metric %s = %v", name, d.Name, v)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, res.Metrics[d.Name])
					}
				}
			} else if _, err := os.Stat(out + "/trace-" + def.name + ".jsonl"); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	if n := strayChildren(); n != 0 {
		t.Errorf("%d child processes left running", n)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.N != 10 || s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("got %+v", s)
	}
	if got := s.spread(); got != 1 {
		t.Errorf("spread %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	s = summarize([]float64{4, 1, 2})
	if s.Q1 != 1 || s.Median != 2 || s.Q3 != 4 {
		t.Errorf("got %+v", s)
	}
	if s := summarize([]float64{7}); s.Median != 7 || s.spread() != 0 {
		t.Errorf("single sample: %+v", s)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want float64
	}{{99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestHistQuantileWithinBucketWidth(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.record(v)
	}
	for _, p := range []float64{0.5, 0.95, 0.99} {
		want := p * 100000
		if got := h.quantile(p); math.Abs(got-want)/want > 1.0/histSub {
			t.Errorf("quantile(%v) = %v, want %v within 1/%d", p, got, want, histSub)
		}
	}
	if h.mean() != 50000.5 {
		t.Errorf("mean %v", h.mean())
	}
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1 << 20, 1<<40 + 12345} {
		i := histIndex(v)
		if lo, hi := histLower(i), histLower(i+1); v < lo || v >= hi {
			t.Errorf("value %d in bucket %d = [%d, %d)", v, i, lo, hi)
		}
	}
}

func TestGateKeepsSlicesBetweenQuietReadings(t *testing.T) {
	readings := func(n int, slow ...int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 100 + float64(i%5) // within quietFactor of the fastest
		}
		for _, i := range slow {
			v[i] = 180
		}
		return v
	}
	// Slice i lies between readings i and i+1: slow readings 10..12 spoil
	// slices 9..12, a slow reading 20 on rank 1's core slices 19 and 20.
	g := gate{local: readings(31, 10, 11, 12), remote: readings(31, 20)}
	keep, share, ok := g.quiet()
	if !ok || len(keep) != 30 {
		t.Fatalf("ok=%v, %d slices", ok, len(keep))
	}
	for i, k := range keep {
		if want := !(i >= 9 && i <= 12) && i != 19 && i != 20; k != want {
			t.Errorf("slice %d kept=%v, want %v", i, k, want)
		}
	}
	if want := 24.0 / 30; share != want {
		t.Errorf("share %v, want %v", share, want)
	}
	if got := pick([]float64{1, 2, 3}, []bool{true, false, true}); !reflect.DeepEqual(got, []float64{1, 3}) {
		t.Errorf("pick: %v", got)
	}
	// A host that was hardly ever quiet: every slice counts, and the run says so.
	var slow []int
	for i := 3; i < 31; i++ {
		slow = append(slow, i)
	}
	keep, share, ok = (&gate{local: readings(31, slow...)}).quiet()
	if ok || share != 2.0/30 {
		t.Errorf("ok=%v share=%v", ok, share)
	}
	for i, k := range keep {
		if !k {
			t.Errorf("slice %d dropped although too few are quiet", i)
		}
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	tr := newTracer(16)
	root := tr.add("pass", -1, 0, 0, 100)
	op := tr.add("op", root, 1, 10, 60)
	tr.add("initiate", op, 1, 10, 30)
	tr.add("wait", op, 1, 20, 50)  // overlaps initiate by 10
	tr.add("op", root, 2, 55, 120) // overlaps the first op by 5, sticks out of the pass by 20
	self := selfTimes(tr.spans)
	want := map[string]int64{
		"pass":     100 - 90, // children cover [10, 100]
		"op":       (50 - 40) + 65,
		"initiate": 20,
		"wait":     30,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if tr.add("x", -1, 0, 0, 1); len(tr.spans) != 6 {
		t.Fatalf("%d spans", len(tr.spans))
	}
	small := newTracer(1)
	small.add("a", -1, 0, 0, 1)
	if small.add("b", 0, 0, 0, 1) != -1 || small.dropped != 1 {
		t.Errorf("a full tracer must count, not keep: dropped=%d", small.dropped)
	}
}

func TestVerdictUsesTheMetricsOwnBound(t *testing.T) {
	rate := metricDecl{Name: "ops_per_s", Better: higher, Bound: 0.10}
	tight := func(m float64) summary { return summary{N: 5, Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	wide := summary{N: 5, Median: 100, Q1: 80, Q3: 120}
	for _, c := range []struct {
		d    metricDecl
		a, b summary
		want string
	}{
		{rate, tight(100), tight(105), "unchanged"},
		{rate, tight(100), tight(85), "regressed"},
		{rate, tight(100), tight(115), "improved"},
		{rate, tight(100), wide, "unresolved"},
		{metricDecl{Name: "op_p50_us", Better: lower, Bound: 0.10}, tight(100), tight(115), "regressed"},
		{metricDecl{Name: "setup_s", Better: lower, Bound: 0.25}, tight(0.010), tight(0.030), "unchanged"},
		{metricDecl{Name: "setup_s", Better: lower, Bound: 0.25}, tight(0.10), tight(0.20), "regressed"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}
