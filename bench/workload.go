package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"gupcxx"
	"gupcxx/internal/core"
	"gupcxx/internal/gups"
	"gupcxx/internal/obs"
)

// workloadDef is one benchmark workload: the world it runs on and the
// load it applies. GUPS workloads list their variants; the others run the
// op mix.
type workloadDef struct {
	name     string
	why      string
	spec     worldSpec
	variants []gups.Variant
	solo     bool // GUPS: only rank 0 updates, so one thread is busy and not two
	// GUPS: updates per updating rank and variant in one pass. Fixed, not
	// calibrated: a pass re-applies the first updates of each rank's share
	// of the HPCC stream, and which share of such a window falls on the
	// other rank's half of the table (41 to 49 % of 2048 updates, depending
	// on where the window starts) decides how long the pass takes.
	passUpdates int64
}

var runtimeVariants = []gups.Variant{gups.RMAPromise, gups.RMAFuture, gups.AMOPromise, gups.AMOFuture}

var workloadDefs = []workloadDef{
	{
		name: "onnode_ops",
		why:  "op mix, 2 co-located in-process ranks (PSHM): every RMA/atomic completes eagerly, so internal/core does the work and the wire none",
		spec: worldSpec{Kind: kindPSHM},
	},
	{
		name: "offnode_ops",
		why:  "op mix across 2 simulated nodes (SIM): every op asynchronous through AM ring, op table and deferred fulfilment, with no sockets or syscalls",
		spec: worldSpec{Kind: kindSIM},
	},
	{
		name:        "onnode_gups",
		why:         "GUPS amo-promises and amo-futures on a 1 MiB table (half of one core's L2), in-process PSHM, rank 0 updating: future conjoining and promise aggregation under thousands of eager ops",
		spec:        worldSpec{Kind: kindPSHM, LogTable: 17},
		variants:    []gups.Variant{gups.AMOPromise, gups.AMOFuture},
		solo:        true,
		passUpdates: 1 << 16,
	},
	{
		name: "xproc_ops",
		why:  "op mix between 2 OS processes (one core each) over loopback UDP, 1 op in flight: latency-bound, so parking, ack pacing and syscalls per op dominate",
		spec: worldSpec{Kind: kindXproc},
	},
	{
		name:        "xproc_gups",
		why:         "GUPS amo-promises (batch 512) between 2 OS processes (one core each), both updating: throughput-bound through batching, window and piggybacked acks",
		spec:        worldSpec{Kind: kindXproc, LogTable: 17},
		variants:    []gups.Variant{gups.AMOPromise},
		passUpdates: 2048,
	},
	{
		name:        "xproc_gups_lossy",
		why:         "xproc_gups under a seeded 2 % datagram drop: retransmission, RTO, AIMD and duplicate suppression do the work; exactly-once is verified",
		spec:        worldSpec{Kind: kindXproc, LogTable: 17, Drop: 0.02},
		variants:    []gups.Variant{gups.AMOPromise},
		passUpdates: 2048,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// runConfig is one run of one workload.
type runConfig struct {
	seed    int64
	seconds float64 // time measured
	// passSec is the length passes are calibrated to. A run's passes all do
	// the same number of ops and go on until the run's seconds are up, so a
	// calibration that is off changes how many passes there are, not how
	// long the run measures.
	passSec float64
	trace   bool
	outDir  string // where a traced run writes its trace file
}

// defaultPassSeconds is short so that a pass lies wholly inside or outside a
// spell of interference from the host (they last seconds), and long beside
// the 20 us sentinel readings and the barriers at its ends.
const defaultPassSeconds = 0.01

// warmSeconds is how long the load runs untimed after calibration: windows,
// estimators, pools and the heap settle over the first second or so.
func (c runConfig) warmSeconds() float64 { return math.Min(1, c.seconds/10) }

// split is the time given to the untraced and to the traced passes.
func (c runConfig) split() (untraced, traced float64) {
	if c.trace {
		return c.seconds / 2, c.seconds / 2
	}
	return c.seconds, 0
}

// during calls pass with 0, 1, 2, ... until seconds have gone by, at
// least once.
func during(seconds float64, pass func(i int)) {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		pass(i)
	}
}

// probeBudget is the time one layer probe may take.
func (c runConfig) probeBudget() time.Duration {
	return time.Duration(math.Min(0.15, c.seconds/60) * float64(time.Second))
}

// measurement is what the leader records while the measured world is up.
type measurement struct {
	unit   int64  // ops per timing unit (64 in-process, 1 across processes; GUPS: one pass)
	main   passes // the untraced passes
	traced passes // the traced passes
	lat    hist   // untraced timing-unit wall times, all passes (op-mix workloads)

	attempted, failed int64
	wrong             []string // correctness failures

	mainOps      int64 // ops (updates, all ranks) between snap0 and snap1
	leaderOps    int64 // of which issued by rank 0
	snap0, snap1 snapshot
	mix0, mix1   snapshot // around the op-mix ops of this run

	tm         *opTimes          // family phase: per-op initiate/wait readings
	famLat     [numFamilies]hist // family phase: timing units of one family at a time
	famAllocs  [numFamilies]float64
	verifyErrs int64
	tableWords int64
	passOps    int64 // ops (GUPS: updates per updating rank and variant) in one pass

	layer map[string]float64 // per-layer metrics gathered on the measured world
	tr    *tracer
	clock time.Time // zero of the trace's timestamps
}

// passes is what a sequence of passes recorded: one entry per pass, and the
// sentinel readings at their boundaries.
type passes struct {
	rates   []float64 // ops (updates) per second
	perOpNs []float64 // issuing-rank ns per op
	p50Ns   []float64 // median timing unit, ns per op
	gate    gate
}

func (p *passes) add(ops int64, d time.Duration, perOpNs, p50Ns float64) {
	p.rates = append(p.rates, float64(ops)/d.Seconds())
	p.perOpNs = append(p.perOpNs, perOpNs)
	p.p50Ns = append(p.p50Ns, p50Ns)
}

// calibrate finds the n (a multiple of quantum) for which run(n) takes
// target seconds: it grows n towards half the target, so that the last
// step extrapolates from a run long enough to have the steady-state cost
// per op, not the start-up cost. It doubles as the warm-up.
func calibrate(run func(n int64) time.Duration, target float64, quantum int64) int64 {
	n := quantum
	for {
		el := run(n).Seconds()
		grow := target / el
		if el >= 0.4*target || n >= 1<<40 {
			n = int64(float64(n) * grow)
			break
		}
		n = int64(float64(n) * math.Max(2, math.Min(16, grow/2)))
	}
	return max(n/quantum*quantum, quantum)
}

// mixUnit is how many ops of the mix share one clock read: a clock read
// costs as much as an eager op, and nothing beside a socket round trip.
func mixUnit(kind string) int64 {
	if kind == kindXproc {
		return 1
	}
	return 64
}

// measureOps runs the op mix as the main load of s.
func measureOps(s *session, cfg runConfig, m *measurement) {
	mix := newOpMix(s, cfg.seed, m.clock)
	if s.spec.Kind == kindPSHM {
		mix.use(eagerCapable)
	}
	m.unit = mixUnit(s.spec.Kind)
	var warm hist
	n := calibrate(func(n int64) time.Duration { return mix.pass(n, m.unit, &warm, nil, nil, -1) },
		cfg.passSec, m.unit)
	// The first ops of a world are slow (cold caches, a closed window), so
	// the calibration falls short; the warm-up's own passes correct it.
	var warmNs []float64
	during(cfg.warmSeconds(), func(int) {
		warmNs = append(warmNs, float64(mix.pass(n, m.unit, &warm, nil, nil, -1)))
	})
	n = max(int64(float64(n)*cfg.passSec*1e9/summarize(warmNs).Median)/m.unit*m.unit, m.unit)
	m.passOps = n

	untraced, traced := cfg.split()
	before := mix.attempted
	s.command(cmdSnap, 0, 0)
	m.snap0 = takeSnapshot(s.r)
	during(untraced, func(i int) {
		m.main.gate.read(s)
		start := mix.now()
		var lat hist
		d := mix.pass(n, m.unit, &lat, nil, nil, -1)
		m.lat.merge(&lat)
		m.main.add(n, d, float64(d)/float64(n), lat.quantile(0.5)/float64(m.unit))
		if m.tr != nil {
			m.tr.add("untraced_pass", 0, int64(i), start, mix.now())
		}
	})
	m.main.gate.read(s)
	if cfg.trace {
		m.tracedPasses(s, mix, n, traced)
	}
	s.command(cmdSnap, 0, 0)
	m.snap1 = takeSnapshot(s.r)
	m.mainOps = mix.attempted - before
	m.leaderOps = m.mainOps
	m.mix0, m.mix1 = m.snap0, m.snap1
	if cfg.trace {
		m.familyPhase(s, mix, cfg)
	}

	perFamily := 2048
	if s.spec.Kind == kindXproc {
		perFamily = 256
	}
	for f := family(0); f < numFamilies; f++ {
		m.famAllocs[f] = mix.allocsPerOp(f, perFamily)
	}
	m.finishMix(mix)
}

// tracedCounterEvery is how many traced passes share one counter row in
// the trace: a row reads runtime.MemStats, which stops the world.
const tracedCounterEvery = 25

// tracedPasses repeats the main load's passes with a clock read around
// each half of each op and spans recorded; the slowdown against the
// untraced passes is the tracing overhead.
func (m *measurement) tracedPasses(s *session, mix *opMix, n int64, seconds float64) {
	var lat hist
	var tm opTimes
	during(seconds, func(i int) {
		m.traced.gate.read(s)
		sp := m.tr.open("pass", 0, int64(i), mix.now())
		d := mix.pass(n, m.unit, &lat, &tm, m.tr, sp)
		m.tr.close(sp, mix.now())
		m.traced.add(n, d, float64(d)/float64(n), 0)
		if i%tracedCounterEvery == 0 {
			m.tr.counters(i, mix.now(), counterRowOf(takeSnapshot(s.r)))
		}
	})
	m.traced.gate.read(s)
}

// familyPhase measures the seven families one by one on this world, in
// three short passes of the whole mix: per-op clock reads for the
// initiate/wait split; one family at a time with a clock read per timing
// unit only, for percentiles that a 45 ns clock read does not swamp; and
// an unclocked pass under the runtime's own phase sampler.
func (m *measurement) familyPhase(s *session, mix *opMix, cfg runConfig) {
	unit := mixUnit(s.spec.Kind)
	mix.use(allFamilies)
	var warm hist
	n := calibrate(func(n int64) time.Duration { return mix.pass(n, unit, &warm, nil, nil, -1) },
		cfg.seconds/40, unit)
	m.mix0 = takeSnapshot(s.r)
	m.tm = &opTimes{}
	mix.pass(n, unit, &warm, m.tm, nil, -1)
	perFamily := max(n/int64(numFamilies)/unit*unit, unit)
	for f := family(0); f < numFamilies; f++ {
		mix.use(func(g family) bool { return g == f })
		mix.pass(perFamily, unit, &m.famLat[f], nil, nil, -1)
	}
	mix.use(allFamilies)
	s.r.SetPhaseHook(s.w.PhaseSampler())
	mix.pass(n, unit, &warm, nil, nil, -1)
	s.r.SetPhaseHook(nil)
	m.mix1 = takeSnapshot(s.r)
}

// finishMix reads the target array back and books the mix's outcome.
func (m *measurement) finishMix(mix *opMix) {
	mix.verify()
	m.attempted += mix.attempted
	m.failed += mix.failed
	if mix.wrong > 0 {
		m.wrong = append(m.wrong, fmt.Sprintf("%d wrong results, first: %s", mix.wrong, mix.firstWrong))
	}
}

// gupsPass runs every variant for n updates per updating rank and returns
// the summed time between the barriers. With a tracer each run is a span
// with its barrier and update-loop children.
func gupsPass(s *session, variants []gups.Variant, n int64, solo bool, tr *tracer, parent int32, clock time.Time) time.Duration {
	cmd := cmdGups
	if solo {
		cmd = cmdGupsSolo
	}
	var total time.Duration
	for i, v := range variants {
		s.command(cmd, int(v), n)
		start := time.Since(clock)
		in, run, out := s.gupsStep(v, n, true)
		total += run + out
		if tr != nil {
			t0 := int64(start)
			sp := tr.add("run:"+v.String(), parent, int64(i), t0, t0+int64(in+run+out))
			tr.add("barrier", sp, int64(i), t0, t0+int64(in))
			tr.add("updates", sp, int64(i), t0+int64(in), t0+int64(in+run))
			tr.add("barrier", sp, int64(i), t0+int64(in+run), t0+int64(in+run+out))
		}
	}
	return total
}

// measureGups runs GUPS as the main load of s.
func measureGups(s *session, def workloadDef, cfg runConfig, m *measurement) {
	clock := m.clock
	nv := int64(len(def.variants))
	updaters := int64(2)
	if def.solo {
		updaters = 1
	}
	n := def.passUpdates
	m.passOps = n
	during(2*cfg.warmSeconds(), func(int) { gupsPass(s, def.variants, n, def.solo, nil, -1, clock) })
	// The passes re-apply one update stream; xor makes an even number of
	// applications the identity. Start the count from a clean table.
	s.command(cmdReset, 0, 0)
	s.gb.Reset()
	s.r.Barrier()

	untraced, traced := cfg.split()
	s.command(cmdSnap, 0, 0)
	m.snap0 = takeSnapshot(s.r)
	passes := 0
	during(untraced, func(i int) {
		m.main.gate.read(s)
		start := int64(time.Since(clock))
		d := gupsPass(s, def.variants, n, def.solo, nil, -1, clock)
		perOp := float64(d) / float64(nv*n)
		m.main.add(updaters*nv*n, d, perOp, perOp)
		if m.tr != nil {
			m.tr.add("untraced_pass", 0, int64(i), start, int64(time.Since(clock)))
		}
		passes++
	})
	m.main.gate.read(s)
	if cfg.trace {
		during(traced, func(i int) {
			m.traced.gate.read(s)
			sp := m.tr.open("pass", 0, int64(i), int64(time.Since(clock)))
			d := gupsPass(s, def.variants, n, def.solo, m.tr, sp, clock)
			m.tr.close(sp, int64(time.Since(clock)))
			perOp := float64(d) / float64(nv*n)
			m.traced.add(updaters*nv*n, d, perOp, perOp)
			if i%tracedCounterEvery == 0 {
				m.tr.counters(i, int64(time.Since(clock)), counterRowOf(takeSnapshot(s.r)))
			}
			passes++
		})
		m.traced.gate.read(s)
	}
	s.command(cmdSnap, 0, 0)
	m.snap1 = takeSnapshot(s.r)
	applied := int64(passes) * nv
	m.leaderOps = applied * n
	m.mainOps = updaters * m.leaderOps
	m.attempted += m.mainOps

	// Verify undoes one application of every rank's stream and counts the
	// words that do not return to their initial value, so the table must
	// hold an odd number of applications of each: make rank 0's count even
	// if the others have applied nothing yet, then add one for everybody.
	one := []gups.Variant{gups.AMOPromise}
	if def.solo && applied%2 == 1 {
		gupsPass(s, one, n, true, nil, -1, clock)
	}
	if def.solo || applied%2 == 0 {
		gupsPass(s, one, n, false, nil, -1, clock)
	}
	s.command(cmdVerify, 0, 0)
	m.verifyErrs = int64(s.r.SumU64(uint64(s.gb.Verify())))
	m.tableWords = s.gb.TableWords()

	if cfg.trace {
		mix := newOpMix(s, cfg.seed, clock)
		m.familyPhase(s, mix, cfg)
		m.finishMix(mix)
	}
}

// measure is the leader's whole time on the measured world.
func measure(s *session, def workloadDef, cfg runConfig, m *measurement) error {
	m.layer = make(map[string]float64)
	m.clock = time.Now()
	if cfg.trace {
		// 120k spans is a minute of a process-world run and the first
		// second of an in-process one; the rest are counted as dropped.
		m.tr = newTracer(120_000)
		m.tr.open("workload", -1, 0, 0)
	}
	if def.variants == nil {
		measureOps(s, cfg, m)
	} else {
		m.unit = 1
		measureGups(s, def, cfg, m)
	}
	if !cfg.trace {
		return nil
	}
	m.tr.close(0, int64(time.Since(m.clock)))

	const barriers = 200
	s.command(cmdBarriers, 0, barriers)
	t0 := time.Now()
	for i := 0; i < barriers; i++ {
		s.r.Barrier()
	}
	m.layer["gupcxx.barrier_us"] = float64(time.Since(t0)) / barriers / 1e3

	for _, ph := range []struct {
		name string
		k    gupcxx.OpKind
		p    gupcxx.Phase
	}{
		{"obs.phase_rma_eager_p50_ns", gupcxx.OpRMA, gupcxx.PhaseEagerCompleted},
		{"obs.phase_rma_acked_p50_ns", gupcxx.OpRMA, gupcxx.PhaseWireAcked},
		{"obs.phase_atomic_eager_p50_ns", gupcxx.OpAtomic, gupcxx.PhaseEagerCompleted},
		{"obs.phase_atomic_acked_p50_ns", gupcxx.OpAtomic, gupcxx.PhaseWireAcked},
		{"obs.phase_rpc_acked_p50_ns", gupcxx.OpRPC, gupcxx.PhaseWireAcked},
	} {
		h := s.w.LatencyHist(ph.k, ph.p)
		m.layer[ph.name] = pow2Quantile(h.Count(), h.Bucket, obs.HistBuckets, 0.5)
	}

	if s.child != nil {
		rtt, err := udpBaseline(s.child.waitHello().Echo, cfg.probeBudget())
		if err != nil {
			return err
		}
		m.layer["baseline.udp_rtt_us"] = rtt
	}
	return nil
}

// counterRowOf picks the counters written beside the spans.
func counterRowOf(sn snapshot) map[string]int64 {
	var initiated, eager, acked int64
	for k := range sn.Ops {
		initiated += sn.Ops[k][core.PhaseInitiated]
		eager += sn.Ops[k][core.PhaseEagerCompleted]
		acked += sn.Ops[k][core.PhaseWireAcked]
	}
	return map[string]int64{
		"ops_initiated":      initiated,
		"ops_eager":          eager,
		"ops_acked":          acked,
		"cell_allocs":        sn.Eng.CellAllocs,
		"deferq_pushes":      sn.Eng.DeferQPushes,
		"progress_calls":     sn.Eng.ProgressCalls,
		"datagrams_sent":     sn.Sub.DatagramsSent,
		"sendmmsg_calls":     sn.Sub.SendmmsgCalls,
		"recvmmsg_calls":     sn.Sub.RecvmmsgCalls,
		"acks_standalone":    sn.Sub.AcksStandalone,
		"acks_piggybacked":   sn.Sub.AcksPiggybacked,
		"retransmits":        sn.Sub.Retransmits,
		"faults_injected":    sn.Sub.FaultsInjected,
		"mallocs":            int64(sn.Mallocs),
		"cpu_us":             sn.UserUs + sn.SysUs,
		"vol_ctxsw":          sn.VolCtx,
		"inflight_highwater": sn.Sub.RelInflightHighWater,
	}
}

// ratioProbe runs the word-sized families of the mix on two fresh
// in-process PSHM worlds, one eager and one deferred, and returns each
// one's ns per op: the two numbers behind the paper's eager÷defer ratio.
// (With the 1 KiB families in, moving the bytes hides the notification
// cost the ratio is about.) The two worlds are up together and take turns
// in slices of a few milliseconds, so that a slow spell of the host falls
// on both alike and leaves the ratio alone.
func ratioProbe(seed int64, seconds float64) (eagerNs, deferNs float64, err error) {
	check := func(mix *opMix) error {
		mix.verify()
		if mix.failed > 0 || mix.wrong > 0 {
			return fmt.Errorf("ratio probe: %d failed, %d wrong (%s)", mix.failed, mix.wrong, mix.firstWrong)
		}
		return nil
	}
	_, err = runWorld(worldSpec{Kind: kindPSHM, Seed: seed}, func(se *session) error {
		// The deferred world's leader drives both rank 0s; the eager world's
		// own rank-0 goroutine is blocked here meanwhile.
		_, err := runWorld(worldSpec{Kind: kindPSHM, Defer: true, Seed: seed}, func(sd *session) error {
			eager, deferred := newOpMix(se, seed, time.Now()), newOpMix(sd, seed, time.Now())
			eager.use(wordSized)
			deferred.use(wordSized)
			var lat hist
			const slice = 0.005
			n := calibrate(func(n int64) time.Duration { return eager.pass(n, 64, &lat, nil, nil, -1) }, slice, 64)
			deferred.pass(n, 64, &lat, nil, nil, -1) // warm-up
			var te, td time.Duration
			rounds := int64(0)
			for start := time.Now(); time.Since(start).Seconds() < seconds; rounds++ {
				te += eager.pass(n, 64, &lat, nil, nil, -1)
				td += deferred.pass(n, 64, &lat, nil, nil, -1)
			}
			eagerNs, deferNs = float64(te)/float64(rounds*n), float64(td)/float64(rounds*n)
			return errors.Join(check(eager), check(deferred))
		})
		return err
	})
	return eagerNs, deferNs, err
}

// gupsProbe runs every GUPS variant on a fresh in-process PSHM world and
// reports each one's update rate: all six under the eager version, the
// four runtime-dependent ones under the deferred version.
func gupsProbe(seed int64, seconds float64, out map[string]float64) error {
	for _, deferred := range []bool{false, true} {
		variants, infix := gups.Variants(), "_"
		if deferred {
			variants, infix = runtimeVariants, "_defer_"
		}
		_, err := runWorld(worldSpec{Kind: kindPSHM, Defer: deferred, LogTable: 22, Seed: seed}, func(s *session) error {
			clock := time.Now()
			for _, v := range variants {
				one := []gups.Variant{v}
				n := calibrate(func(n int64) time.Duration {
					return gupsPass(s, one, n, false, nil, -1, clock)
				}, seconds/2, gups.DefaultBatch)
				d := gupsPass(s, one, n, false, nil, -1, clock)
				out["gups."+v.String()+infix+"updates_per_s"] = float64(2*n) / d.Seconds()
			}
			return nil
		})
		if err != nil {
			return err
		}
		runtime.GC()
	}
	return nil
}

// result is the outcome of one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Spread    map[string]summary `json:"spread,omitempty"`         // per-pass order statistics behind the medians
	PassRates []float64          `json:"pass_ops_per_s,omitempty"` // every untraced pass
	PassP50Ns []float64          `json:"pass_op_p50_ns,omitempty"`
	PassQuiet []bool             `json:"pass_quiet,omitempty"` // whether the pass counted
	Samples   int64              `json:"latency_samples,omitempty"`
	Problems  []string           `json:"problems,omitempty"`
	Notes     map[string]float64 `json:"notes,omitempty"` // measured, but not a declared metric
}

func (r *result) fail(format string, a ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, a...))
}

// runWorkload performs one run: repeated set-ups, the measured world,
// the probes (traced runs), the metrics and the correctness gates.
func runWorkload(def workloadDef, cfg runConfig) (res result) {
	res = result{Workload: def.name, Trace: cfg.trace, Correct: true, Attempted: 1,
		Metrics: map[string]float64{}, Spread: map[string]summary{}, Notes: map[string]float64{}}
	socketsBefore := openSockets()
	spec := def.spec
	unplace := func() {}
	if spec.Kind == kindXproc {
		unplace = placeRank(0)
	}
	defer func() { unplace() }()
	spec.Seed = cfg.seed
	epoch := uint32(1000 + (cfg.seed%4000)*256)

	// Set up many times and report the median of the set-ups made while the
	// host was quiet: one set-up of an in-process world is a few hundred
	// microseconds, which no single sample measures. The repetitions come in
	// two rounds, before and after the measured world, each spread over its
	// share of the budget: the host's slow spells last seconds, and a
	// hundred set-ups back to back would all fall into one.
	var setups, readies, rendezvous []float64
	var setupGate gate
	var childRSS int64
	note := func(rep worldReport) {
		if rep.childReady > 0 {
			readies = append(readies, float64(rep.childReady)/1e6)
			rendezvous = append(rendezvous, float64(rep.rendezvous)/1e6)
		}
		if rep.childRSSKiB > childRSS {
			childRSS = rep.childRSSKiB
		}
	}
	const setupsPerRound = 100
	setupRound := func(first uint32) error {
		if len(setups) > 0 {
			// The readings either side of the measured world bound no set-up.
			setups = append(setups, math.NaN())
		}
		budget := time.Duration(math.Min(0.5, cfg.seconds/30) * float64(time.Second))
		start := time.Now()
		for i := uint32(0); i < 2 || (time.Since(start) < budget && i < setupsPerRound); i++ {
			repStart := time.Now()
			spec.Epoch = epoch + first + i
			setupGate.local = append(setupGate.local, sentinel())
			rep, err := runWorld(spec, nil)
			if err != nil {
				return fmt.Errorf("set-up repetition %d: %w", first+i, err)
			}
			setups = append(setups, rep.setup.Seconds())
			note(rep)
			runtime.GC()
			time.Sleep(budget/setupsPerRound - time.Since(repStart))
		}
		setupGate.local = append(setupGate.local, sentinel())
		return nil
	}
	if err := setupRound(0); err != nil {
		res.fail("%v", err)
		res.Failed = res.Attempted
		return res
	}

	var m measurement
	spec.Epoch = epoch + 2*setupsPerRound
	rep, err := runWorld(spec, func(s *session) error { return measure(s, def, cfg, &m) })
	note(rep)
	res.Attempted, res.Failed = max(m.attempted, 1), m.failed
	if err != nil {
		// The world died under the load (peer declared down, child lost):
		// whatever was not completed counts as failed.
		res.fail("measured world: %v", err)
		res.Failed = res.Attempted
		return res
	}
	if err := setupRound(setupsPerRound); err != nil {
		res.fail("%v", err)
		res.Failed = res.Attempted
		return res
	}
	// The probes build in-process worlds of their own, for which this
	// process goes back to every core.
	unplace()
	unplace = func() {}
	for _, w := range m.wrong {
		res.fail("%s", w)
	}

	// End-to-end metrics: medians over the passes (set-ups) during which
	// the host left the benchmark's cores alone.
	quiet, quietShare, _ := m.main.gate.quiet()
	quietSetups, quietSetupShare, _ := setupGate.quiet()
	rates, perOp, p50 := summarize(pick(m.main.rates, quiet)), summarize(pick(m.main.perOpNs, quiet)), summarize(pick(m.main.p50Ns, quiet))
	setup := summarize(dropNaN(pick(setups, quietSetups)))
	e2e := map[string]float64{
		"setup_s":   setup.Median,
		"ops_per_s": rates.Median,
		"op_p50_us": p50.Median / 1e3,
	}
	res.Spread["setup_s"] = setup
	res.Spread["ops_per_s"] = rates
	res.Spread["op_p50_us"] = summary{N: p50.N, Median: p50.Median / 1e3, Q1: p50.Q1 / 1e3, Q3: p50.Q3 / 1e3}
	res.PassRates, res.PassP50Ns, res.PassQuiet = m.main.rates, m.main.p50Ns, quiet
	res.Samples = m.lat.n
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		res.fail("getrusage: %v", err)
	}
	peakRSS := float64(ru.Maxrss+childRSS) / 1024

	// Gates that hold in every run.
	verifyShare := 0.0
	if def.variants != nil {
		verifyShare = float64(m.verifyErrs) / float64(m.tableWords)
		res.Notes["gups.verify_error_share"] = verifyShare
		racy := false
		for _, v := range def.variants {
			racy = racy || v == gups.RMAPromise || v == gups.RMAFuture
		}
		switch {
		case !racy && m.verifyErrs != 0:
			// Atomic updates are exactly-once, loss or no loss.
			res.Failed += m.verifyErrs
			res.fail("GUPS verification: %d table words wrong, want 0", m.verifyErrs)
		case racy && verifyShare > 0.01:
			// The rma variants' read-modify-write races are HPCC's
			// tolerated 1 %; beyond it updates were lost.
			res.Failed += m.verifyErrs
			res.fail("GUPS verification: %.4f of the table wrong, tolerance 0.01", verifyShare)
		}
	}
	eagerShare := eagerShareOf(m.mix0, m.mix1)
	retransPerOp := float64(subDelta(&m, rep, func(s snapshot) int64 { return s.Sub.Retransmits })) / float64(max(m.mainOps, 1))
	faults := subDelta(&m, rep, func(s snapshot) int64 { return s.Sub.FaultsInjected })
	switch def.name {
	case "onnode_ops":
		for f := family(0); f < numFamilies; f++ {
			// The count is the whole process's, so a runtime timer can
			// add a stray object; a per-op allocation adds thousands.
			if valueLess[f] && m.famAllocs[f] >= 0.01 {
				res.fail("%s allocates %.3f objects/op on a co-located target, want 0", familyNames[f], m.famAllocs[f])
			}
		}
		if eagerShare != 1 {
			res.fail("eager share of RMA and atomic ops is %.4f on a co-located target, want 1", eagerShare)
		}
	case "offnode_ops":
		if eagerShare != 0 {
			res.fail("eager share is %.4f across simulated nodes, want 0", eagerShare)
		}
	case "xproc_gups_lossy":
		if faults == 0 || retransPerOp == 0 {
			res.fail("lossy wire: %d faults injected, %.5f retransmits/op; both must be positive", faults, retransPerOp)
		}
	}
	if spec.Kind == kindXproc && spec.Drop == 0 && (faults != 0 || retransPerOp > cleanRetransmitCeiling) {
		res.fail("clean wire: %d faults injected, %.5f retransmits/op (ceiling %.2f)", faults, retransPerOp, cleanRetransmitCeiling)
	}
	if def.name == "onnode_ops" || cfg.trace {
		// The paper's headline ratio, from two guarded numbers.
		// Never shorter than 0.3 s: the gate must hold in a smoke run too.
		eagerNs, deferNs, err := ratioProbe(cfg.seed, math.Max(0.3, cfg.seconds/20))
		if err != nil {
			res.fail("%v", err)
		} else if deferNs/eagerNs < minDeferOverEager {
			res.fail("deferred mix is %.2fx the eager mix (%.1f / %.1f ns/op), want >= %.1f", deferNs/eagerNs, deferNs, eagerNs, minDeferOverEager)
		}
		m.layer["gupcxx.onnode_eager_ns_per_op"] = eagerNs
		m.layer["gupcxx.onnode_defer_ns_per_op"] = deferNs
	}

	if !cfg.trace {
		res.Metrics = e2e
		res.Notes["host_quiet_share"] = quietShare
		res.Notes["pass_ops"] = float64(m.passOps)
		res.Notes["host_quiet_share_setup"] = quietSetupShare
		res.Notes["ns_per_op"] = perOp.Median
		res.Notes["proc.peak_rss_mb"] = peakRSS
		res.Notes["gasnet.retransmits_per_op"] = retransPerOp
		if def.variants == nil {
			for f := family(0); f < numFamilies; f++ {
				res.Notes["allocs_per_op."+familyNames[f]] = m.famAllocs[f]
			}
			res.Notes["gupcxx.eager_share"] = eagerShare
			if p := tailPercentile(m.lat.n); p > 0 {
				res.Notes[fmt.Sprintf("op_p%g_us", p*100)] = m.lat.quantile(p) / float64(m.unit) / 1e3
			}
		}
		finishRun(&res, socketsBefore)
		return res
	}

	// Traced run: the per-layer metrics.
	res.Notes = e2e // end-to-end values of a traced run are informative only
	res.Notes["host_quiet_share"] = quietShare
	layer := m.layer
	m.perFamilyLayers(mixUnit(spec.Kind))
	// Peak memory is read before the probes build worlds of their own. It
	// is a layer metric and not an end-to-end one because it does not
	// repeat: on xproc_gups it moves by half from run to run with the
	// depth the receive queues happen to reach.
	layer["proc.peak_rss_mb"] = peakRSS
	layer["gupcxx.eager_share"] = eagerShare
	layer["gupcxx.ops_failed_share"] = float64(res.Failed) / float64(res.Attempted)
	layer["gupcxx.allocs_per_op"] = float64(m.snap1.Mallocs-m.snap0.Mallocs) / float64(max(m.leaderOps, 1))
	if def.variants == nil {
		layer["gupcxx.op_p95_us"] = m.lat.quantile(0.95) / float64(m.unit) / 1e3
		layer["gupcxx.op_p99_us"] = m.lat.quantile(0.99) / float64(m.unit) / 1e3
	} else {
		layer["gupcxx.op_p95_us"] = percentileOf(m.main.perOpNs, 0.95) / 1e3
		layer["gupcxx.op_p99_us"] = percentileOf(m.main.perOpNs, 0.99) / 1e3
	}
	layer["gups.verify_error_share"] = verifyShare
	quietTraced, _, _ := m.traced.gate.quiet()
	layer["obs.trace_overhead_share"] = summarize(pick(m.traced.perOpNs, quietTraced)).Median/perOp.Median - 1
	m.counterLayers(rep)
	if len(readies) > 0 {
		layer["boot.child_ready_ms"] = summarize(readies).Median
		layer["boot.rendezvous_ms"] = summarize(rendezvous).Median
	} else {
		// An in-process workload has no rank-1 process of its own: stand
		// one up once, so the boot and loopback-baseline layers are
		// measured in this run too.
		bootSpec := worldSpec{Kind: kindXproc, Seed: cfg.seed, Epoch: epoch + 201}
		brep, err := runWorld(bootSpec, func(s *session) error {
			rtt, err := udpBaseline(s.child.waitHello().Echo, cfg.probeBudget())
			layer["baseline.udp_rtt_us"] = rtt
			return err
		})
		if err != nil {
			res.fail("boot probe: %v", err)
		}
		layer["boot.child_ready_ms"] = float64(brep.childReady) / 1e6
		layer["boot.rendezvous_ms"] = float64(brep.rendezvous) / 1e6
	}
	budget := cfg.probeBudget()
	coreProbes(budget, layer)
	if err := gasnetProbes(budget, layer); err != nil {
		res.fail("%v", err)
	}
	serialProbe(budget, layer)
	clockProbe(budget, layer)
	if err := gupsProbe(cfg.seed, cfg.seconds/80, layer); err != nil {
		res.fail("gups probe: %v", err)
	}
	res.Metrics = layer

	self := selfTimes(m.tr.spans)
	for name, ns := range self {
		res.Notes["self_ms."+name] = float64(ns) / 1e6
	}
	path := filepath.Join(cfg.outDir, "trace-"+def.name+".jsonl")
	if err := m.tr.write(path); err != nil {
		res.fail("trace file: %v", err)
	}
	finishRun(&res, socketsBefore)
	return res
}

// cleanRetransmitCeiling bounds retransmissions per op on a wire with no
// injected loss. It is not zero: with hundreds of updates in flight a clean
// loopback run retransmits for about one update in sixty (timeouts that
// fire under load, not loss), against one in six under the 2 % drop.
const cleanRetransmitCeiling = 0.08

// minDeferOverEager is the least the deferred mix must cost relative to
// the eager one on co-located ranks for the reproduction to hold.
const minDeferOverEager = 2.0

// finishRun is the hygiene check: nothing started may outlive the run.
func finishRun(res *result, socketsBefore int) {
	if n := strayChildren(); n > 0 {
		killChildren()
		res.fail("%d rank-1 processes were still running at the end of the run", n)
	}
	// Closed sockets leave the descriptor table when their reader
	// goroutines return, which Close waits for; allow the runtime a moment
	// for the netpoller's own descriptors.
	for i := 0; i < 50 && openSockets() > socketsBefore; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := openSockets(); n > socketsBefore {
		res.fail("%d sockets still open at the end of the run", n-socketsBefore)
	}
}

// eagerShareOf is the share of RMA and atomic ops between two snapshots
// that completed eagerly at initiation. Wire RPCs are left out: a
// registered-handler RPC is a round trip through the target's progress
// even when the target is co-located.
func eagerShareOf(a, b snapshot) float64 {
	var initiated, eager int64
	for _, k := range []core.OpKind{core.OpRMA, core.OpAtomic} {
		initiated += b.Ops[k][core.PhaseInitiated] - a.Ops[k][core.PhaseInitiated]
		eager += b.Ops[k][core.PhaseEagerCompleted] - a.Ops[k][core.PhaseEagerCompleted]
	}
	if initiated == 0 {
		return 0
	}
	return float64(eager) / float64(initiated)
}

// subDelta differences one counter over the main load, summing rank 0's
// process and, in a process world, rank 1's.
func subDelta(m *measurement, rep worldReport, get func(snapshot) int64) int64 {
	d := get(m.snap1) - get(m.snap0)
	if len(rep.childSnaps) >= 2 {
		d += get(rep.childSnaps[1]) - get(rep.childSnaps[0])
	}
	return d
}

// percentileOf is the nearest-rank percentile of a few values.
func percentileOf(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[min(int(math.Ceil(p*float64(len(s))))-1, len(s)-1)]
}

// perFamilyLayers turns the family phase's readings into the
// gupcxx.<family>_* metrics. The initiate and wait means each include one
// clock read (baseline.clock_read_ns); the percentiles are over timing
// units of unit ops.
func (m *measurement) perFamilyLayers(unit int64) {
	for f := family(0); f < numFamilies; f++ {
		ft := &m.tm.fam[f]
		p := "gupcxx." + familyNames[f]
		m.layer[p+"_initiate_ns"] = ft.initiate.mean()
		m.layer[p+"_wait_ns"] = ft.wait.mean()
		m.layer[p+"_p50_ns"] = m.famLat[f].quantile(0.5) / float64(unit)
		m.layer[p+"_p99_ns"] = m.famLat[f].quantile(0.99) / float64(unit)
	}
}

// counterLayers differences the exported counters over the main load.
func (m *measurement) counterLayers(rep worldReport) {
	ops := float64(max(m.mainOps, 1))
	leader := float64(max(m.leaderOps, 1))
	d := func(get func(snapshot) int64) float64 { return float64(subDelta(m, rep, get)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	eng := func(get func(core.Stats) int64) float64 {
		return float64(get(m.snap1.Eng)-get(m.snap0.Eng)) / leader
	}
	l := m.layer
	l["core.cell_allocs_per_op"] = eng(func(s core.Stats) int64 { return s.CellAllocs })
	l["core.deferq_pushes_per_op"] = eng(func(s core.Stats) int64 { return s.DeferQPushes })
	l["core.whenall_built_per_op"] = eng(func(s core.Stats) int64 { return s.WhenAllBuilt })
	l["core.ready_hits_per_op"] = eng(func(s core.Stats) int64 { return s.ReadyHits })
	l["core.eager_deliveries_per_op"] = eng(func(s core.Stats) int64 { return s.EagerDeliveries })

	datagrams := d(func(s snapshot) int64 { return s.Sub.DatagramsSent })
	batches := d(func(s snapshot) int64 { return s.Sub.CoalescedBatches })
	batched := d(func(s snapshot) int64 { return s.Sub.CoalescedMsgs })
	standalone := d(func(s snapshot) int64 { return s.Sub.AcksStandalone })
	piggy := d(func(s snapshot) int64 { return s.Sub.AcksPiggybacked })
	hits := d(func(s snapshot) int64 { return s.Sub.PoolHits })
	misses := d(func(s snapshot) int64 { return s.Sub.PoolMisses })
	pushes := d(func(s snapshot) int64 { return s.Sub.RingPushes })
	spills := d(func(s snapshot) int64 { return s.Sub.BacklogSpills })
	l["gasnet.datagrams_per_op"] = datagrams / ops
	l["gasnet.sendmmsg_calls_per_op"] = d(func(s snapshot) int64 { return s.Sub.SendmmsgCalls }) / ops
	l["gasnet.recvmmsg_calls_per_op"] = d(func(s snapshot) int64 { return s.Sub.RecvmmsgCalls }) / ops
	l["gasnet.msgs_per_datagram"] = ratio(datagrams-batches+batched, datagrams)
	l["gasnet.acks_standalone_per_op"] = standalone / ops
	l["gasnet.acks_piggybacked_share"] = ratio(piggy, piggy+standalone)
	l["gasnet.retransmits_per_op"] = d(func(s snapshot) int64 { return s.Sub.Retransmits }) / ops
	l["gasnet.rto_expirations"] = d(func(s snapshot) int64 { return s.Sub.RTOExpirations })
	l["gasnet.dups_dropped"] = d(func(s snapshot) int64 { return s.Sub.DupsDropped })
	l["gasnet.window_shrinks"] = d(func(s snapshot) int64 { return s.Sub.WindowShrinks })
	l["gasnet.pool_hit_share"] = ratio(hits, hits+misses)
	l["gasnet.ring_spill_share"] = ratio(spills, pushes+spills)
	l["gasnet.inflight_highwater"] = float64(m.snap1.Sub.RelInflightHighWater)
	l["gasnet.backpressure_fails"] = d(func(s snapshot) int64 { return s.Sub.BackpressureFails })
	l["gasnet.srtt_us"] = float64(m.snap1.Flow.SRTT) / 1e3
	l["gasnet.rto_us"] = float64(m.snap1.Flow.RTO) / 1e3
	l["gasnet.cwnd"] = float64(m.snap1.Flow.Window)
	l["gasnet.faults_injected"] = d(func(s snapshot) int64 { return s.Sub.FaultsInjected })
	l["gasnet.inmem_fallbacks"] = d(func(s snapshot) int64 { return s.Sub.InMemFallbacks })

	cpu := d(func(s snapshot) int64 { return s.UserUs + s.SysUs })
	l["proc.cpu_us_per_op"] = cpu / ops
	l["proc.sys_share"] = ratio(d(func(s snapshot) int64 { return s.SysUs }), cpu)
	l["proc.vol_ctxsw_per_op"] = d(func(s snapshot) int64 { return s.VolCtx }) / ops
	l["proc.invol_ctxsw_per_op"] = d(func(s snapshot) int64 { return s.InvolCtx }) / ops
}
