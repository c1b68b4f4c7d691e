// Command bench is gupcxx's benchmark: six workloads from the eager
// on-node path to a lossy two-process world, measured end to end and layer
// by layer, with the outputs of every run checked. See README.md.
//
//	bench                      every workload, untraced then traced, in subprocesses; writes out/record.json
//	bench --workload W ...     one run of one workload; the last line of output is its JSON result
//	bench -compare A B         verdict per workload x end-to-end metric between two (lists of) records
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

func main() {
	// The rank-1 process of a process world is this binary re-executed.
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload, in this process")
	seed := fs.Int64("seed", 1, "seeds the op-mix order, target offsets, GUPS stream offset and fault PRNG")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds measured per run")
	passSec := fs.Float64("pass-seconds", defaultPassSeconds, "length of one pass; a metric is the median over the passes run while the host was quiet")
	trace := fs.Int("trace", 0, "1 = the traced run: per-layer metrics and a trace file instead of end-to-end metrics")
	compare := fs.Bool("compare", false, "compare two records (or comma-separated lists of records) given as arguments")
	outDir := fs.String("out", "bench/out", "directory for trace files and the record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *passSec <= 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -pass-seconds and -seconds must be positive")
		return 2
	}
	// A fault spec or scenario inherited from the environment would be
	// applied by the runtime to every UDP world, the clean ones included.
	os.Unsetenv("GUPCXX_UDP_FAULT")
	os.Unsetenv("GUPCXX_UDP_SCENARIO")

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json[,a2.json...] b.json[,b2.json...]")
			return 2
		}
		return compareMain(fs.Arg(0), fs.Arg(1))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, passSec: *passSec, trace: *trace != 0, outDir: *outDir}
	if *workload == "" {
		return runAll(cfg)
	}
	def, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	return runOne(def, cfg)
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// runOne runs one workload in this process and prints its result; the
// last line of standard output is the result object of the benchmark
// contract.
func runOne(def workloadDef, cfg runConfig) int {
	// Whatever happens — a hang in a collective, a lost child — the run
	// ends, with its children reaped and a failed result recorded, well
	// inside three times its expected duration.
	limit := time.Duration(3*(cfg.seconds+15)) * time.Second
	if limit > 170*time.Second {
		limit = 170 * time.Second
	}
	watchdog := time.AfterFunc(limit, func() {
		killChildren()
		res := result{Workload: def.name, Trace: cfg.trace, Attempted: 1, Failed: 1,
			Problems: []string{fmt.Sprintf("watchdog: no result after %v", limit)}}
		printResult(res)
		os.Exit(1)
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() { // ends with the process
		<-sig
		killChildren()
		os.Exit(130)
	}()

	res := runWorkload(def, cfg)
	watchdog.Stop()
	printResult(res)
	if !res.Correct {
		return 1
	}
	return 0
}

// wireMetric and wireResult are the benchmark contract's result object.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// printResult prints the metrics by name with their units, anything that
// failed, the detailed result for the orchestrating process, and last the
// contract's result line.
func printResult(res result) {
	mode := "end-to-end"
	if res.Trace {
		mode = "per-layer"
	}
	fmt.Printf("workload %s, %s metrics:\n", res.Workload, mode)
	wire := wireResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]wireMetric{}}
	for _, name := range sortedKeys(res.Metrics) {
		unit := unitOf(name)
		fmt.Printf("  %-40s %16.6g %s\n", name, res.Metrics[name], unit)
		wire.Metrics[name] = wireMetric{Value: res.Metrics[name], Unit: unit}
	}
	if len(res.Notes) > 0 {
		fmt.Println("also measured (not declared metrics):")
		for _, name := range sortedKeys(res.Notes) {
			fmt.Printf("  %-40s %16.6g\n", name, res.Notes[name])
		}
	}
	fmt.Printf("ops attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Println("FAILED:", p)
	}
	detail, _ := json.Marshal(res)
	fmt.Printf("%s%s\n", detailPrefix, detail)
	line, _ := json.Marshal(wire)
	fmt.Println(string(line))
}

const detailPrefix = "detail: "

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
