package gupcxx_test

// Operations-plane integration tests: the /metrics and /debug/gupcxx
// export surface against a real UDP world, event delivery through
// World.SubscribeEvents, and clean teardown of the observability
// goroutines.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gupcxx"
)

// obsWorkload drives at least four op families (RMA put+get, atomics,
// RPC, collectives) across a two-rank world so every exposition surface
// has non-trivial counters to show.
func obsWorkload(r *gupcxx.Rank) {
	tgt := gupcxx.New[uint64](r)
	tgts := gupcxx.ExchangePtr(r, tgt)
	r.Barrier()
	if r.Me() == 0 {
		peer := tgts[1]
		ad := gupcxx.NewAtomicDomain[uint64](r)
		for i := 0; i < 32; i++ {
			gupcxx.Rput(r, uint64(i), peer).Wait()
			_ = gupcxx.Rget(r, peer).Wait()
			ad.FetchAdd(peer, 1).Wait()
			gupcxx.RPC(r, 1, func(*gupcxx.Rank) {}).Wait()
		}
	}
	r.Barrier()
}

// TestMetricsEndpointLive scrapes a bound listener on a UDP world after a
// mixed workload: the Prometheus text must carry non-zero op counters and
// latency histograms for at least three families, substrate counters,
// per-pair flow gauges, and the liveness gauge; the debug snapshot must
// carry the liveness matrix and flow table.
func TestMetricsEndpointLive(t *testing.T) {
	defer leakCheck(t)()
	w, err := gupcxx.NewWorld(gupcxx.Config{
		Ranks: 2, Conduit: gupcxx.UDP, SegmentBytes: 1 << 14,
		MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	addr := w.MetricsAddr()
	if addr == "" || strings.HasSuffix(addr, ":0") {
		t.Fatalf("MetricsAddr = %q, want a bound host:port", addr)
	}
	w.EnablePhaseSampling()
	if err := w.Run(obsWorkload); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	body := string(raw)

	// Non-zero initiation counters for the driven families.
	for _, family := range []string{"rma", "atomic", "rpc", "coll"} {
		prefix := `gupcxx_ops_total{family="` + family + `",phase="initiated"} `
		val := metricValue(t, body, prefix)
		if val == "" || val == "0" {
			t.Errorf("ops counter for %s = %q, want non-zero", family, val)
		}
	}
	// Latency histograms for at least three families (sampler installed).
	histFamilies := 0
	for _, family := range []string{"rma", "atomic", "rpc", "coll"} {
		if strings.Contains(body, `gupcxx_op_phase_latency_seconds_count{family="`+family+`"`) {
			histFamilies++
		}
	}
	if histFamilies < 3 {
		t.Errorf("latency histograms present for %d families, want >= 3", histFamilies)
	}
	for _, want := range []string{
		"# TYPE gupcxx_ops_total counter",
		"# TYPE gupcxx_op_phase_latency_seconds histogram",
		`gupcxx_op_phase_latency_seconds_bucket{family="rma",phase="initiated",le="+Inf"}`,
		`gupcxx_engine_total{counter="progress_calls"}`,
		`gupcxx_substrate_total{counter="datagrams_sent"}`,
		`gupcxx_substrate_total{counter="retransmits"}`,
		`gupcxx_substrate_total{counter="fast_retransmits"}`,
		`gupcxx_substrate_total{counter="sack_acks"}`,
		`gupcxx_peer_state{rank="0",peer="1"} 0`,
		`gupcxx_flow_window{rank="0",peer="1"}`,
		`gupcxx_flow_inflight_bytes{rank="0",peer="1"}`,
		"gupcxx_events_published_total",
		"gupcxx_ranks 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Prometheus text-format shape: every non-comment line is
	// "name_or_labels value" with no empty label braces.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Contains(line, "{}") {
			t.Errorf("empty label braces: %q", line)
		}
		if i := strings.LastIndexByte(line, ' '); i <= 0 || i == len(line)-1 {
			t.Errorf("malformed sample line: %q", line)
		}
	}

	// Debug snapshot: JSON with liveness matrix, flows, events, ops.
	resp, err = http.Get("http://" + addr + "/debug/gupcxx")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Conduit  string                       `json:"conduit"`
		Ranks    int                          `json:"ranks"`
		Version  string                       `json:"version"`
		Ops      map[string]map[string]int64  `json:"ops"`
		Liveness [][]string                   `json:"liveness"`
		Flows    []map[string]json.RawMessage `json:"flows"`
		Events   struct {
			Published int64             `json:"published"`
			Dropped   int64             `json:"dropped"`
			Recent    []json.RawMessage `json:"recent"`
		} `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("debug snapshot is not JSON: %v", err)
	}
	resp.Body.Close()
	if snap.Conduit != "udp" || snap.Ranks != 2 {
		t.Errorf("snapshot identity = %s/%d, want udp/2", snap.Conduit, snap.Ranks)
	}
	if len(snap.Liveness) != 2 || snap.Liveness[0][0] != "self" || snap.Liveness[0][1] != "alive" {
		t.Errorf("liveness matrix = %v", snap.Liveness)
	}
	if len(snap.Flows) != 2 {
		t.Errorf("flow table has %d rows, want 2 (one per directed pair)", len(snap.Flows))
	}
	if snap.Ops["rma"]["initiated"] == 0 {
		t.Error("snapshot ops matrix empty for rma/initiated")
	}
}

// metricValue extracts the sample value following the first line that
// starts with prefix, or "" when absent.
func metricValue(t *testing.T, body, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			return strings.TrimPrefix(line, prefix)
		}
	}
	return ""
}

// TestMetricsHandlerHTTPTest mounts the handler on an httptest server —
// no Config.MetricsAddr, no bound listener of our own — and checks both
// endpoints work standalone.
func TestMetricsHandlerHTTPTest(t *testing.T) {
	defer leakCheck(t)()
	w, err := gupcxx.NewWorld(gupcxx.Config{Ranks: 2, Conduit: gupcxx.PSHM, SegmentBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.EnablePhaseSampling()
	if err := w.Run(obsWorkload); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(w.MetricsHandler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	if !strings.Contains(body, `gupcxx_ops_total{family="rma",phase="eager-completed"}`) {
		t.Errorf("handler metrics missing op matrix:\n%.400s", body)
	}
	// PSHM world: no flow gauges (no reliability layer), but histograms
	// and engine counters still present.
	if strings.Contains(body, "gupcxx_flow_window") {
		t.Error("flow gauges exposed on a conduit without a reliability layer")
	}
	if !strings.Contains(body, "gupcxx_op_phase_latency_seconds_count") {
		t.Error("no latency histograms despite the sampler hook")
	}

	resp, err = http.Get(ts.URL + "/debug/gupcxx")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("debug snapshot not JSON: %v", err)
	}
	resp.Body.Close()
	if snap["conduit"] != "pshm" {
		t.Errorf("snapshot conduit = %v", snap["conduit"])
	}
}

// TestMetricsMultiprocOwnRowsOnly: a rank of a process-per-rank world
// holds only its own view of its peers, so that is all it may export. Two
// process-shaped worlds on bound loopback sockets, inside this one test
// process; rank 0's scrape must carry no series, liveness row or flow row
// on behalf of rank 1 — a scrape of the whole world would otherwise see an
// invented copy of every per-pair series beside the real one.
func TestMetricsMultiprocOwnRowsOnly(t *testing.T) {
	defer leakCheck(t)()
	const n = 2
	worlds := newProcessPair(t)
	for _, w := range worlds {
		defer w.Close()
	}

	ts := httptest.NewServer(worlds[0].MetricsHandler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	if !strings.Contains(body, `gupcxx_peer_state{rank="0",peer="1"}`) ||
		!strings.Contains(body, `gupcxx_flow_window{rank="0",peer="1"}`) {
		t.Errorf("rank 0's own row missing from its scrape:\n%.400s", body)
	}
	if strings.Contains(body, `rank="1"`) {
		t.Error("rank 0 exports series on behalf of rank 1, which another process hosts")
	}

	resp, err = http.Get(ts.URL + "/debug/gupcxx")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Liveness [][]string `json:"liveness"`
		Flows    []struct {
			Rank int `json:"rank"`
		} `json:"flows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("debug snapshot is not JSON: %v", err)
	}
	resp.Body.Close()
	if len(snap.Liveness) != n || len(snap.Liveness[0]) != n || snap.Liveness[1] != nil {
		t.Errorf("liveness = %v, want rank 0's row and a null row for rank 1", snap.Liveness)
	}
	if len(snap.Flows) != 1 || snap.Flows[0].Rank != 0 {
		t.Errorf("flows = %+v, want exactly rank 0's one directed pair", snap.Flows)
	}
}

// TestMetricsServerLifecycle: worlds with the listener on must tear it
// down completely in Close (no goroutine leaks, port released), and a
// bad address must fail construction.
func TestMetricsServerLifecycle(t *testing.T) {
	defer leakCheck(t)()
	for i := 0; i < 3; i++ {
		w, err := gupcxx.NewWorld(gupcxx.Config{
			Ranks: 2, Conduit: gupcxx.UDP, SegmentBytes: 1 << 12,
			MetricsAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		addr := w.MetricsAddr()
		w.Close()
		w.Close() // idempotent
		if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
			t.Error("scrape succeeded after World.Close")
		}
	}
	if _, err := gupcxx.NewWorld(gupcxx.Config{
		Ranks: 2, MetricsAddr: "256.1.2.3:bogus",
	}); err == nil {
		t.Error("NewWorld accepted an unbindable MetricsAddr")
	}
}

// TestWorldCloseWithActiveSubscribers: Close stops the event sources but
// must not invalidate live subscriptions — queued events stay drainable.
func TestWorldCloseWithActiveSubscribers(t *testing.T) {
	defer leakCheck(t)()
	w, err := gupcxx.NewWorld(gupcxx.Config{
		Ranks: 2, Conduit: gupcxx.SIM, SimLatency: 50 * time.Millisecond,
		SegmentBytes: 1 << 12, MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := w.SubscribeEvents()
	defer sub.Close()
	err = w.Run(func(r *gupcxx.Rank) {
		ptr := gupcxx.New[int64](r)
		ptrs := gupcxx.ExchangePtr(r, ptr)
		res := gupcxx.Rput(r, 1, ptrs[(r.Me()+1)%r.N()],
			gupcxx.OpFuture(), gupcxx.OpDeadline(time.Millisecond))
		if werr := res.Op.WaitErr(); !errors.Is(werr, gupcxx.ErrDeadlineExceeded) {
			t.Errorf("Err = %v, want ErrDeadlineExceeded", werr)
		}
		r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Both ranks' puts expired: the events were published before Close
	// and must still drain from the live subscription.
	evs := sub.Poll(nil)
	expiries := 0
	for _, ev := range evs {
		if ev.Kind == gupcxx.EvDeadlineExpired {
			expiries++
			if ev.Peer != -1 {
				t.Errorf("deadline event peer = %d, want -1", ev.Peer)
			}
			if gupcxx.OpKind(ev.A) != gupcxx.OpRMA {
				t.Errorf("deadline event family = %v, want rma", gupcxx.OpKind(ev.A))
			}
		}
	}
	if expiries != 2 {
		t.Errorf("drained %d deadline-expired events after Close, want 2", expiries)
	}
	if sub.Dropped() != 0 {
		t.Errorf("subscription dropped %d events", sub.Dropped())
	}
}
