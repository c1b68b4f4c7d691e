package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// environment is where a record was measured.
type environment struct {
	Commit     string            `json:"commit"`
	Seed       int64             `json:"seed"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	CPUModel   string            `json:"cpu_model"`
	Caches     map[string]string `json:"caches"` // cpu0's, from sysfs: "L2 Unified" -> "4096K"
	GupsTables map[string]string `json:"gups_tables"`
	Kernel     string            `json:"kernel"`
	Link       string            `json:"link"`
}

func readEnvironment(seed int64) environment {
	env := environment{
		Commit:     "unknown",
		Seed:       seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Caches:     map[string]string{},
		GupsTables: map[string]string{},
		// Process worlds talk over 127.0.0.1: no real link is measured.
		Link: "loopback",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	idx, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, dir := range idx {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(dir, name))
			return strings.TrimSpace(string(b))
		}
		if level := read("level"); level != "" {
			env.Caches["L"+level+" "+read("type")] = read("size")
		}
	}
	for _, d := range workloadDefs {
		if d.spec.LogTable > 0 {
			env.GupsTables[d.name] = fmt.Sprintf("2^%d words = %d MiB", d.spec.LogTable, 8<<d.spec.LogTable>>20)
		}
	}
	return env
}

// workloadRecord is one workload's untraced and traced results.
type workloadRecord struct {
	Why      string `json:"why"`
	EndToEnd result `json:"end_to_end"`
	PerLayer result `json:"per_layer"`
}

// record is what a full run writes.
type record struct {
	Env       environment               `json:"env"`
	Seconds   float64                   `json:"seconds_per_run"`
	PassSec   float64                   `json:"pass_seconds"`
	Workloads map[string]workloadRecord `json:"workloads"`
}

// runAll runs every workload untraced and then traced, each run in a
// subprocess of its own so that RSS, GC state and sockets do not carry
// over, prints every metric and writes the record.
func runAll(cfg runConfig) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// An interrupt reaches the running subprocess, which reaps its rank-1
	// child before it exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rec := record{Env: readEnvironment(cfg.seed), Seconds: cfg.seconds, PassSec: cfg.passSec,
		Workloads: map[string]workloadRecord{}}
	ok := true
	for _, def := range workloadDefs {
		wr := workloadRecord{Why: def.why}
		for _, trace := range []int{0, 1} {
			cmd := exec.CommandContext(ctx, exe,
				"--workload", def.name,
				"--seed", strconv.FormatInt(cfg.seed, 10),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"--pass-seconds", strconv.FormatFloat(cfg.passSec, 'g', -1, 64),
				"--trace", strconv.Itoa(trace),
				"--out", cfg.outDir)
			cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
			cmd.WaitDelay = 5 * time.Second
			cmd.Stderr = os.Stderr
			var out bytes.Buffer
			cmd.Stdout = io.MultiWriter(os.Stdout, &out)
			runErr := cmd.Run()
			res, found := parseDetail(out.Bytes())
			if !found {
				res = result{Workload: def.name, Trace: trace == 1, Attempted: 1, Failed: 1,
					Problems: []string{fmt.Sprintf("no result from subprocess: %v", runErr)}}
			}
			if trace == 0 {
				wr.EndToEnd = res
			} else {
				wr.PerLayer = res
			}
			ok = ok && res.Correct && runErr == nil
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "bench: interrupted")
				return 130
			}
		}
		rec.Workloads[def.name] = wr
	}

	fmt.Println()
	fmt.Printf("%-18s", "end-to-end")
	for _, d := range endToEnd {
		fmt.Printf(" %14s", d.Name+" "+d.Unit)
	}
	fmt.Printf(" %12s %8s\n", "attempted", "failed")
	for _, def := range workloadDefs {
		r := rec.Workloads[def.name].EndToEnd
		fmt.Printf("%-18s", def.name)
		for _, d := range endToEnd {
			fmt.Printf(" %14.6g", r.Metrics[d.Name])
		}
		fmt.Printf(" %12d %8d\n", r.Attempted, r.Failed)
	}
	path := filepath.Join(cfg.outDir, "record.json")
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("record:", path)
	if !ok {
		fmt.Println("FAILED: at least one correctness gate failed; see above")
		return 1
	}
	return 0
}

func parseDetail(out []byte) (res result, found bool) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<22)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			found = json.Unmarshal([]byte(rest), &res) == nil
		}
	}
	return res, found
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// setupFloorSeconds: a set-up time under 50 ms is never flagged, whatever
// its ratio — at that size it is process and page-fault noise.
const setupFloorSeconds = 0.05

// side is one side of a comparison: the records of one version.
type side struct {
	recs []record
}

func loadSide(list string) (side, error) {
	var s side
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return s, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return s, fmt.Errorf("%s: %w", path, err)
		}
		s.recs = append(s.recs, r)
	}
	return s, nil
}

// metric summarises one workload's metric over the side's records. With a
// single record the spread is that of the record's own passes.
func (s side) metric(workload, name string) summary {
	if len(s.recs) == 1 {
		r := s.recs[0].Workloads[workload].EndToEnd
		if sp, ok := r.Spread[name]; ok {
			return sp
		}
		return summarize([]float64{r.Metrics[name]})
	}
	var v []float64
	for _, r := range s.recs {
		v = append(v, r.Workloads[workload].EndToEnd.Metrics[name])
	}
	return summarize(v)
}

func (s side) failedShare(workload string) float64 {
	var attempted, failed int64
	for _, r := range s.recs {
		e := r.Workloads[workload].EndToEnd
		attempted += e.Attempted
		failed += e.Failed
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// verdict judges b against base a by the metric's own bound.
func verdict(d metricDecl, a, b summary) string {
	if a.Median == 0 {
		return "unresolved"
	}
	worse := (b.Median - a.Median) / a.Median
	if d.Better == higher {
		worse = -worse
	}
	if d.Name == "setup_s" {
		// Its spread is not judged, and small set-ups are never flagged.
		if a.Median < setupFloorSeconds && b.Median < setupFloorSeconds {
			return "unchanged"
		}
	} else if a.spread() > d.Bound || b.spread() > d.Bound {
		return "unresolved"
	}
	switch {
	case worse > d.Bound:
		return "regressed"
	case worse < -d.Bound:
		return "improved"
	}
	return "unchanged"
}

func compareMain(listA, listB string) int {
	a, err := loadSide(listA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadSide(listB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("base A: %d record(s); B: %d record(s); ratio is B/A\n", len(a.recs), len(b.recs))
	fmt.Printf("%-18s %-12s %40s %40s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "bound", "verdict")
	bad := false
	for _, def := range workloadDefs {
		for _, d := range endToEnd {
			sa, sb := a.metric(def.name, d.Name), b.metric(def.name, d.Name)
			v := verdict(d, sa, sb)
			bad = bad || v == "regressed" || v == "unresolved"
			ratio := 0.0
			if sa.Median != 0 {
				ratio = sb.Median / sa.Median
			}
			fmt.Printf("%-18s %-12s %40s %40s %8.4f %6.2f  %s\n", def.name, d.Name, fmtSummary(sa), fmtSummary(sb), ratio, d.Bound, v)
		}
		fmt.Printf("%-18s %-12s %40.6f %40.6f\n", def.name, "failed share", a.failedShare(def.name), b.failedShare(def.name))
	}
	if bad {
		return 1
	}
	return 0
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", s.Median, s.Q1, s.Q3, s.N)
}
