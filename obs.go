package gupcxx

import (
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"time"

	"gupcxx/internal/core"
	"gupcxx/internal/gasnet"
	"gupcxx/internal/obs"
)

// Operations-plane re-exports: the event bus types and the event kinds a
// running world publishes. Subscribe with World.SubscribeEvents; each
// subscription owns a bounded ring that sheds its oldest events (counted
// in Dropped) if the subscriber stalls — publishers never block on a slow
// consumer.
type (
	// RuntimeEvent is one substrate health transition: liveness changes,
	// backpressure edges, congestion-window moves, retransmission
	// exhaustion, deadline expiry.
	RuntimeEvent = obs.Event
	// RuntimeEventKind discriminates RuntimeEvent payloads.
	RuntimeEventKind = obs.EventKind
	// EventBus is the world's bounded non-blocking event bus.
	EventBus = obs.Bus
	// EventSubscription is one subscriber's drainable view of the bus.
	EventSubscription = obs.Subscription
)

// The event kinds; see internal/obs for per-kind payload conventions.
const (
	EvPeerSuspect         = obs.EvPeerSuspect
	EvPeerDown            = obs.EvPeerDown
	EvPeerRecovered       = obs.EvPeerRecovered
	EvBackpressureOn      = obs.EvBackpressureOn
	EvBackpressureOff     = obs.EvBackpressureOff
	EvWindowShrink        = obs.EvWindowShrink
	EvWindowGrow          = obs.EvWindowGrow
	EvRetransmitExhausted = obs.EvRetransmitExhausted
	EvDeadlineExpired     = obs.EvDeadlineExpired
	EvInMemFallback       = obs.EvInMemFallback
	EvPeerReadmitted      = obs.EvPeerReadmitted
	EvStaleIncarnation    = obs.EvStaleIncarnation
)

// debugRecentCap bounds the world-owned recent-events ring surfaced in
// the /debug/gupcxx snapshot.
const debugRecentCap = 256

// Events exposes the world's event bus (always present; publishing to it
// costs nothing measurable while nobody subscribes).
func (w *World) Events() *EventBus { return w.bus }

// SubscribeEvents attaches a new subscription to the world's event bus.
// Drain it with Poll from any goroutine and Close it when done. The
// subscription survives until Close — a World.Close does not detach it,
// it only stops the sources.
func (w *World) SubscribeEvents() *EventSubscription { return w.bus.Subscribe() }

// MetricsAddr reports the observability listener's bound address (useful
// with a :0 port in Config.MetricsAddr), or "" when the listener is off.
func (w *World) MetricsAddr() string {
	if w.obsSrv == nil {
		return ""
	}
	return w.obsSrv.Addr()
}

// MetricsHandler returns the observability HTTP handler (/metrics,
// /debug/gupcxx) without requiring a bound listener, so tests and
// embedders can mount it on their own server.
func (w *World) MetricsHandler() http.Handler {
	return obs.Handler(w.writeMetrics, w.debugSnapshot)
}

// PhaseSampler returns a phase hook that feeds the world's per-family ×
// per-phase latency histograms. Install it per rank with SetPhaseHook
// (before Run): sampling is opt-in because a hooked pipeline reads the
// clock per phase transition; the hook itself is allocation-free.
func (w *World) PhaseSampler() core.PhaseHook {
	return func(k OpKind, p Phase, elapsedNanos int64) {
		w.hists.Observe(int(k), int(p), elapsedNanos)
	}
}

// EnablePhaseSampling installs PhaseSampler on every rank. Call before
// Run; the engines' hook fields are owned by the rank goroutines once
// they start.
func (w *World) EnablePhaseSampling() {
	hook := w.PhaseSampler()
	for _, r := range w.ranks {
		if r == nil {
			continue
		}
		r.SetPhaseHook(hook)
	}
}

// LatencyHist exposes the (family, phase) latency histogram filled by
// PhaseSampler, or nil out of range. Counts accumulate only while the
// sampler hook is installed on at least one rank.
func (w *World) LatencyHist(k OpKind, p Phase) *obs.Hist {
	return w.hists.At(int(k), int(p))
}

// startObsServer brings up the opt-in export surface: the world-owned
// recent-events subscription, the rate sampler, and the HTTP listener.
// A bind failure aborts world construction (NewWorld).
func (w *World) startObsServer(addr string) error {
	w.evsub = w.bus.Subscribe()
	w.sampler = obs.NewSampler(time.Second, w.collectCounters)
	srv, err := obs.NewServer(addr, w.writeMetrics, w.debugSnapshot)
	if err != nil {
		w.sampler.Close()
		w.evsub.Close()
		w.sampler, w.evsub = nil, nil
		return err
	}
	w.obsSrv = srv
	return nil
}

// closeObs tears the export surface down before the domain stops:
// listener first (no scrapes against a dying world), then the sampler
// goroutine, then the internal subscription. Nil-safe and idempotent.
func (w *World) closeObs() {
	if w.obsSrv != nil {
		w.obsSrv.Close()
	}
	if w.sampler != nil {
		w.sampler.Close()
	}
	if w.evsub != nil {
		w.evsub.Close()
	}
}

// mirrorOps sums every rank's mirrored phase matrix. Race-safe: the
// mirrors are all-atomic shadows flushed by the rank goroutines.
func (w *World) mirrorOps() core.OpStats {
	var total core.OpStats
	for _, m := range w.mirrors {
		ops := m.Ops()
		total.Add(&ops)
	}
	return total
}

// writeMetrics renders one Prometheus text-format scrape. Everything read
// here is atomic or mirror-backed, so scraping a live world is safe; op
// counters lag the hot path by at most one mirror flush interval.
func (w *World) writeMetrics(out io.Writer) {
	p := obs.NewPromWriter(out)
	ranks := len(w.ranks)

	p.Meta("gupcxx_ranks", "number of SPMD ranks in the world", "gauge")
	p.Int("gupcxx_ranks", "", int64(ranks))

	ops := w.mirrorOps()
	p.Meta("gupcxx_ops_total", "op pipeline phase transitions by operation family", "counter")
	for k := OpKind(0); k < core.NumOpKinds; k++ {
		for ph := Phase(0); ph < core.NumPhases; ph++ {
			p.Int("gupcxx_ops_total",
				`family="`+k.String()+`",phase="`+ph.String()+`"`, ops.Of(k, ph))
		}
	}

	p.Meta("gupcxx_engine_total", "completion-machinery counters summed over ranks", "counter")
	for i := 0; i < core.NumEngineStats; i++ {
		var total int64
		for _, m := range w.mirrors {
			total += m.EngineStat(i)
		}
		p.Int("gupcxx_engine_total", `counter="`+core.EngineStatNames[i]+`"`, total)
	}

	p.Meta("gupcxx_substrate_total", "substrate wire and queue counters, domain-wide", "counter")
	for _, c := range substrateCounters(w.dom.Stats()) {
		p.Int("gupcxx_substrate_total", `counter="`+c.Name+`"`, c.Value)
	}

	p.Meta("gupcxx_events_published_total", "events published on the operations-plane bus", "counter")
	p.Int("gupcxx_events_published_total", "", w.bus.Published())
	p.Meta("gupcxx_events_dropped_total", "events shed by stalled bus subscribers", "counter")
	p.Int("gupcxx_events_dropped_total", "", w.bus.Dropped())

	if w.dom.Config().Conduit == UDP && ranks > 1 {
		p.Meta("gupcxx_peer_state", "liveness view of peer from rank: 0 alive, 1 suspect, 2 down", "gauge")
		p.Meta("gupcxx_flow_srtt_seconds", "smoothed RTT of the rank->peer send stream", "gauge")
		p.Meta("gupcxx_flow_window", "adaptive congestion window, datagrams", "gauge")
		p.Meta("gupcxx_flow_inflight", "unacknowledged datagrams in flight", "gauge")
		p.Meta("gupcxx_flow_inflight_bytes", "bytes retained in the retransmission queue", "gauge")
		p.Meta("gupcxx_flow_reorder_bytes", "bytes parked out-of-order on the receive side", "gauge")
		for local := 0; local < ranks; local++ {
			if w.ranks[local] == nil {
				continue // another process's rank: its view is its own to export
			}
			for peer := 0; peer < ranks; peer++ {
				if peer == local {
					continue
				}
				labels := `rank="` + strconv.Itoa(local) + `",peer="` + strconv.Itoa(peer) + `"`
				p.Int("gupcxx_peer_state", labels, peerStateValue(w.dom.LivenessState(local, peer)))
				fs := w.dom.FlowState(local, peer)
				p.Sample("gupcxx_flow_srtt_seconds", labels, fs.SRTT.Seconds())
				p.Int("gupcxx_flow_window", labels, int64(fs.Window))
				p.Int("gupcxx_flow_inflight", labels, int64(fs.InFlight))
				p.Int("gupcxx_flow_inflight_bytes", labels, int64(fs.InFlightBytes))
				p.Int("gupcxx_flow_reorder_bytes", labels, int64(fs.ReorderBytes))
			}
		}
	}

	for k := OpKind(0); k < core.NumOpKinds; k++ {
		for ph := Phase(0); ph < core.NumPhases; ph++ {
			h := w.hists.At(int(k), int(ph))
			if h == nil || h.Count() == 0 {
				continue
			}
			p.Meta("gupcxx_op_phase_latency_seconds",
				"sampled op latency from initiation to the given phase", "histogram")
			p.Histogram("gupcxx_op_phase_latency_seconds",
				`family="`+k.String()+`",phase="`+ph.String()+`"`, h)
		}
	}

	if w.sampler != nil {
		rates := w.sampler.Rates()
		if len(rates) > 0 {
			p.Meta("gupcxx_rate_per_second", "per-second rates delta-sampled from the counters", "gauge")
			for _, r := range rates {
				p.Sample("gupcxx_rate_per_second", `counter="`+r.Name+`"`, r.PerSec)
			}
		}
	}
}

// peerStateValue maps a LivenessState label to its gauge encoding.
func peerStateValue(s string) int64 {
	switch s {
	case "suspect":
		return 1
	case "down":
		return 2
	default:
		return 0
	}
}

// debugSnapshot assembles the /debug/gupcxx JSON document: identity,
// counters, the liveness matrix and per-pair flow state of the ranks this
// process hosts, recent events, and sampled rates. Same race-safety story
// as writeMetrics.
func (w *World) debugSnapshot() any {
	ranks := len(w.ranks)
	ops := w.mirrorOps()
	opsDoc := map[string]map[string]int64{}
	for k := OpKind(0); k < core.NumOpKinds; k++ {
		row := map[string]int64{}
		for ph := Phase(0); ph < core.NumPhases; ph++ {
			row[ph.String()] = ops.Of(k, ph)
		}
		opsDoc[k.String()] = row
	}
	engDoc := map[string]int64{}
	for i := 0; i < core.NumEngineStats; i++ {
		var total int64
		for _, m := range w.mirrors {
			total += m.EngineStat(i)
		}
		engDoc[core.EngineStatNames[i]] = total
	}
	subDoc := map[string]int64{}
	for _, c := range substrateCounters(w.dom.Stats()) {
		subDoc[c.Name] = c.Value
	}

	// Rows of ranks this process hosts only (a multiproc world's other
	// rows stay null): their views live in their own processes.
	liveness := make([][]string, ranks)
	for local := 0; local < ranks; local++ {
		if w.ranks[local] == nil {
			continue
		}
		liveness[local] = make([]string, ranks)
		for peer := 0; peer < ranks; peer++ {
			liveness[local][peer] = w.dom.LivenessState(local, peer)
		}
	}

	type flowRow struct {
		Rank          int   `json:"rank"`
		Peer          int   `json:"peer"`
		SRTTNanos     int64 `json:"srtt_ns"`
		RTONanos      int64 `json:"rto_ns"`
		Window        int   `json:"window"`
		InFlight      int   `json:"in_flight"`
		InFlightBytes int   `json:"in_flight_bytes"`
		ReorderBytes  int   `json:"reorder_bytes"`
		ReorderBudget int   `json:"reorder_budget"`
	}
	var flows []flowRow
	if w.dom.Config().Conduit == UDP {
		for local := 0; local < ranks; local++ {
			if w.ranks[local] == nil {
				continue
			}
			for peer := 0; peer < ranks; peer++ {
				if peer == local {
					continue
				}
				fs := w.dom.FlowState(local, peer)
				flows = append(flows, flowRow{
					Rank: local, Peer: peer,
					SRTTNanos: int64(fs.SRTT), RTONanos: int64(fs.RTO),
					Window: fs.Window, InFlight: fs.InFlight,
					InFlightBytes: fs.InFlightBytes,
					ReorderBytes:  fs.ReorderBytes,
					ReorderBudget: fs.ReorderBudget,
				})
			}
		}
	}

	type recentEvent struct {
		Kind      string `json:"kind"`
		TimeNanos int64  `json:"time_ns"`
		Rank      int32  `json:"rank"`
		Peer      int32  `json:"peer"`
		A         int64  `json:"a"`
		B         int64  `json:"b"`
	}
	var recent []recentEvent
	for _, ev := range w.recentEvents() {
		recent = append(recent, recentEvent{
			Kind: ev.Kind.String(), TimeNanos: ev.Time,
			Rank: ev.Rank, Peer: ev.Peer, A: ev.A, B: ev.B,
		})
	}

	ratesDoc := map[string]float64{}
	if w.sampler != nil {
		for _, r := range w.sampler.Rates() {
			ratesDoc[r.Name] = r.PerSec
		}
	}

	return map[string]any{
		"conduit":   w.dom.Config().Conduit.String(),
		"ranks":     ranks,
		"version":   w.ver.Name,
		"ops":       opsDoc,
		"engine":    engDoc,
		"substrate": subDoc,
		"liveness":  liveness,
		"flows":     flows,
		"events": map[string]any{
			"published": w.bus.Published(),
			"dropped":   w.bus.Dropped(),
			"recent":    recent,
		},
		"rates": ratesDoc,
	}
}

// recentEvents drains the world-owned subscription into the bounded
// recent ring and returns a copy of its tail. Empty when the export
// surface is off (no internal subscription exists then).
func (w *World) recentEvents() []RuntimeEvent {
	w.evmu.Lock()
	defer w.evmu.Unlock()
	if w.evsub == nil {
		return nil
	}
	w.recent = w.evsub.Poll(w.recent)
	if n := len(w.recent); n > debugRecentCap {
		copy(w.recent, w.recent[n-debugRecentCap:])
		w.recent = w.recent[:debugRecentCap]
	}
	out := make([]RuntimeEvent, len(w.recent))
	copy(out, w.recent)
	return out
}

// collectCounters feeds the rate sampler: every substrate counter plus
// per-family initiation counts and the bus totals, all readable from the
// sampler's goroutine.
func (w *World) collectCounters() []obs.Counter {
	cs := substrateCounters(w.dom.Stats())
	ops := w.mirrorOps()
	for k := OpKind(0); k < core.NumOpKinds; k++ {
		cs = append(cs, obs.Counter{
			Name:  "ops_" + k.String() + "_initiated",
			Value: ops.Of(k, PhaseInitiated),
		})
	}
	cs = append(cs, obs.Counter{Name: "events_published", Value: w.bus.Published()})
	return cs
}

// substrateCounters flattens a gasnet.Stats snapshot into named counters
// via reflection, so new substrate counters surface in /metrics without
// another hand-written enumeration to keep in sync.
func substrateCounters(s gasnet.Stats) []obs.Counter {
	v := reflect.ValueOf(s)
	t := v.Type()
	cs := make([]obs.Counter, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int64 {
			continue
		}
		cs = append(cs, obs.Counter{Name: snakeCase(t.Field(i).Name), Value: v.Field(i).Int()})
	}
	return cs
}

// snakeCase converts a Go exported identifier to snake_case, keeping
// acronym runs intact: RTOExpirations -> rto_expirations, PoolHits ->
// pool_hits, SendmmsgCalls -> sendmmsg_calls.
func snakeCase(s string) string {
	rs := []rune(s)
	var b strings.Builder
	b.Grow(len(rs) + 4)
	for i, r := range rs {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				prevLower := rs[i-1] >= 'a' && rs[i-1] <= 'z' || rs[i-1] >= '0' && rs[i-1] <= '9'
				acronymEnd := i+1 < len(rs) && rs[i+1] >= 'a' && rs[i+1] <= 'z' &&
					rs[i-1] >= 'A' && rs[i-1] <= 'Z'
				if prevLower || acronymEnd {
					b.WriteByte('_')
				}
			}
			b.WriteRune(r - 'A' + 'a')
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}
