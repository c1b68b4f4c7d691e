package main

import "gupcxx/internal/gups"

// metricDecl declares one metric; BENCHMARK.json carries the same list
// (bench_test.go holds the two together).
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the share of the base median a change may cost
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a gupcxx user sees, measured untraced on every
// workload.
var endToEnd = []metricDecl{
	// An "op" is one operation of the mix, or one GUPS update; both ranks'
	// updates count. Median over the passes.
	{"ops_per_s", "1/s", higher, 0.25},
	// Median time per op as the issuing rank sees it, over timing units:
	// one op across processes, a 64-op block in-process (a clock read
	// costs as much as an eager op), one pass for GUPS.
	{"op_p50_us", "us", lower, 0.25},
	// Start until the world is ready for its first op: NewWorld or
	// WorldFromEnv, child spawn and rendezvous, segment and table
	// allocation, pointer exchange, first barrier. Median of several
	// set-ups per run.
	{"setup_s", "s", lower, 0.25},
}

// perLayer are the metrics of single layers, measured in the traced run.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	var l []metricDecl
	add := func(name, unit, better string) { l = append(l, metricDecl{Name: name, Unit: unit, Better: better}) }
	for _, f := range familyNames {
		add("gupcxx."+f+"_initiate_ns", "ns", lower)
		add("gupcxx."+f+"_wait_ns", "ns", lower)
		add("gupcxx."+f+"_p50_ns", "ns", lower)
		add("gupcxx."+f+"_p99_ns", "ns", lower)
	}
	add("gupcxx.eager_share", "share", higher)
	add("gupcxx.ops_failed_share", "share", lower)
	add("gupcxx.allocs_per_op", "count", lower)
	add("gupcxx.barrier_us", "us", lower)
	add("gupcxx.op_p95_us", "us", lower)
	add("gupcxx.op_p99_us", "us", lower)
	add("gupcxx.onnode_eager_ns_per_op", "ns", lower)
	add("gupcxx.onnode_defer_ns_per_op", "ns", lower)

	for _, n := range []string{"initiate_eager_ns", "initiate_defer_ns", "async_roundtrip_ns",
		"whenall_eager_ns", "whenall_defer_ns", "promise_op_ns", "progress_idle_ns"} {
		add("core."+n, "ns", lower)
	}
	for _, n := range []string{"cell_allocs_per_op", "deferq_pushes_per_op", "whenall_built_per_op"} {
		add("core."+n, "count", lower)
	}
	add("core.ready_hits_per_op", "count", higher)
	add("core.eager_deliveries_per_op", "count", higher)

	add("gasnet.am_send_poll_ns", "ns", lower)
	add("gasnet.segment_copy_ns", "ns", lower)
	add("gasnet.segment_copy_1k_ns", "ns", lower)
	add("gasnet.udp_put_rtt_us", "us", lower)
	add("gasnet.udp_burst_put_us", "us", lower)
	for _, n := range []string{"datagrams_per_op", "sendmmsg_calls_per_op", "recvmmsg_calls_per_op",
		"acks_standalone_per_op", "retransmits_per_op", "rto_expirations", "dups_dropped", "window_shrinks",
		"backpressure_fails", "faults_injected", "inmem_fallbacks", "inflight_highwater"} {
		add("gasnet."+n, "count", lower)
	}
	add("gasnet.ring_spill_share", "share", lower)
	add("gasnet.msgs_per_datagram", "count", higher)
	add("gasnet.acks_piggybacked_share", "share", higher)
	add("gasnet.pool_hit_share", "share", higher)
	add("gasnet.cwnd", "count", higher)
	add("gasnet.srtt_us", "us", lower)
	add("gasnet.rto_us", "us", lower)

	add("proc.cpu_us_per_op", "us", lower)
	add("proc.sys_share", "share", lower)
	add("proc.vol_ctxsw_per_op", "count", lower)
	add("proc.invol_ctxsw_per_op", "count", lower)
	// ru_maxrss of the workload process plus, in process worlds, rank 1's.
	add("proc.peak_rss_mb", "MiB", lower)

	add("serial.encode_decode_ns", "ns", lower)
	add("boot.rendezvous_ms", "ms", lower)
	add("boot.child_ready_ms", "ms", lower)

	for _, v := range gups.Variants() {
		add("gups."+v.String()+"_updates_per_s", "1/s", higher)
	}
	for _, v := range runtimeVariants {
		add("gups."+v.String()+"_defer_updates_per_s", "1/s", higher)
	}
	add("gups.verify_error_share", "share", lower)

	for _, n := range []string{"phase_rma_eager_p50_ns", "phase_rma_acked_p50_ns", "phase_atomic_eager_p50_ns",
		"phase_atomic_acked_p50_ns", "phase_rpc_acked_p50_ns"} {
		add("obs."+n, "ns", lower)
	}
	add("obs.trace_overhead_share", "share", lower)

	add("baseline.udp_rtt_us", "us", lower)
	add("baseline.clock_read_ns", "ns", lower)
	return l
}

var units = func() map[string]string {
	u := make(map[string]string)
	for _, d := range endToEnd {
		u[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		u[d.Name] = d.Unit
	}
	return u
}()

func unitOf(name string) string { return units[name] }
