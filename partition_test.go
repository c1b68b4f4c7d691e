package gupcxx_test

// The split-brain fault suite: a 4-rank process-per-rank world cut into
// two halves by the scenario engine (GUPCXX_UDP_SCENARIO), held apart
// long past DownAfter, then healed. During the cut, operations toward the
// severed half must fail fast and typed — ErrPeerUnreachable, a deadline,
// or backpressure — never hang; intra-group traffic must be untouched.
// After the heal, every severed pair must return to Alive under the SAME
// incarnation (healed, not readmitted) and carry RMA and RPC traffic in
// both directions. Run via `make test-partition` (wired into CI) or the
// ordinary test run.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gupcxx"
	"gupcxx/internal/boot"
)

// partitionScenario is the per-rank body of TestMultiprocPartition. The
// world is split down the middle by the scenario script; each rank
// watches its two cross-group peers go Down and come back under the same
// incarnation.
func partitionScenario(w *gupcxx.World, r *gupcxx.Rank, echo gupcxx.RPCHandlerID) {
	me, n := r.Me(), r.N() // 4 ranks, scenario groups {0,1} | {2,3}
	inGroup := me ^ 1
	var cross []int
	for p := 0; p < n; p++ {
		if (p >= n/2) != (me >= n/2) {
			cross = append(cross, p)
		}
	}
	dom := w.Domain()

	// Healthy start: exchange pointers for the post-heal RMA check, prove
	// every cross link carries traffic, and record the incarnations a heal
	// must preserve.
	word := gupcxx.New[uint64](r)
	words := gupcxx.ExchangePtr(r, word)
	r.Barrier()
	for _, p := range cross {
		mustEcho(r, p, echo, 60*time.Second)
	}
	crossInc := make(map[int]uint32, len(cross))
	for _, p := range cross {
		crossInc[p] = dom.IncarnationOf(me, p)
		if crossInc[p] == 0 {
			panic(fmt.Sprintf("rank %d has no recorded incarnation for peer %d after traffic", me, p))
		}
	}
	fmt.Printf("WORKER_READY rank=%d\n", me)

	// The scenario severs the groups. Keep cross-directed traffic flowing
	// while waiting for this side to declare both cross peers down: every
	// failure must be fast and typed, never a hang. The Stats counter is
	// the sticky signal — a rank delayed past the cut cannot miss it.
	deadline := time.Now().Add(60 * time.Second)
	for dom.Stats().PeersDown < int64(len(cross)) {
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("rank %d: cross peers never went down (stats %+v)", me, dom.Stats()))
		}
		for _, p := range cross {
			_, verr := gupcxx.RPCWire(r, p, echo, []byte("cut?"), gupcxx.OpDeadline(2*time.Second)).WaitErr()
			if verr != nil && !tolerableChurnErr(verr) {
				panic(fmt.Sprintf("cross op %d->%d failed untyped: %v", me, p, verr))
			}
		}
		r.Serve()
	}
	// The cut severs only cross-group links: the in-group pair still works.
	mustEcho(r, inGroup, echo, 60*time.Second)
	// Operations toward a severed peer fail at injection while it is Down.
	for _, p := range cross {
		if !r.PeerDown(p) {
			continue // already healed under a skewed scenario clock
		}
		_, verr := gupcxx.RPCWire(r, p, echo, []byte("dead"), gupcxx.OpDeadline(2*time.Second)).WaitErr()
		if verr == nil || !tolerableChurnErr(verr) {
			panic(fmt.Sprintf("op toward severed peer %d resolved as %v", p, verr))
		}
	}

	// Heal phase: wait for both cross peers to return to Alive.
	deadline = time.Now().Add(60 * time.Second)
	for {
		alive := 0
		for _, p := range cross {
			if !r.PeerDown(p) {
				alive++
			}
		}
		if alive == len(cross) && dom.Stats().PeersHealed >= int64(len(cross)) {
			break
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("rank %d: cross peers never healed (stats %+v)", me, dom.Stats()))
		}
		r.Serve()
	}
	s := dom.Stats()
	// At least one heal per severed pair. Strictly more is possible on an
	// oversubscribed host — a heartbeat gap long enough to flap a healthy
	// link down and heal it again is scheduling noise, not a protocol bug —
	// but every down must have been healed: readmission stays at zero and
	// the incarnations must be the ones recorded before the cut.
	if s.PeersHealed < int64(len(cross)) {
		panic(fmt.Sprintf("PeersHealed = %d, want >= %d (one per severed pair)", s.PeersHealed, len(cross)))
	}
	if s.PeersReadmitted != 0 {
		panic(fmt.Sprintf("PeersReadmitted = %d, want 0: healing must not reincarnate", s.PeersReadmitted))
	}
	for _, p := range cross {
		if got := dom.IncarnationOf(me, p); got != crossInc[p] {
			panic(fmt.Sprintf("peer %d incarnation changed across heal: %d -> %d", p, crossInc[p], got))
		}
		// The state settles to alive; a transient "suspect" from a stolen
		// timeslice is legal en route, so poll rather than assert an instant.
		stDeadline := time.Now().Add(30 * time.Second)
		for dom.LivenessState(me, p) != "alive" {
			if time.Now().After(stDeadline) {
				panic(fmt.Sprintf("peer %d state %q after heal, want alive", p, dom.LivenessState(me, p)))
			}
			r.Serve()
		}
	}

	// The healed wire carries RPC and RMA in both directions across the
	// old cut. Every rank writes into its cross partner's segment; the
	// partner (cross partner of c is me again) wrote into ours.
	for _, p := range cross {
		mustEcho(r, p, echo, 60*time.Second)
	}
	c := (me + n/2) % n
	gupcxx.Rput(r, uint64(1000+me), words[c]).Wait()
	r.Barrier() // all four ranks are alive again: world collectives work
	if got := *word.Local(r); got != uint64(1000+c) {
		panic(fmt.Sprintf("post-heal put: rank %d holds %d, want %d", me, got, 1000+c))
	}
	if got := gupcxx.Rget(r, words[c]).Wait(); got != uint64(1000+me) {
		panic(fmt.Sprintf("post-heal get: read %d from rank %d, want %d", got, c, 1000+me))
	}
	r.Barrier()
}

// TestMultiprocPartition: a 4-rank process world is split 2|2 by the
// scenario DSL, held apart for 3 seconds (dozens of DownAfter periods),
// then healed. Every process must observe the cut as typed fast failures,
// heal every severed pair under the same incarnation with zero
// readmissions, and carry traffic across the healed cut — then exit
// cleanly, leak-free.
func TestMultiprocPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("partition soak skipped in -short mode")
	}
	defer leakCheck(t)()
	out := &syncBuffer{}
	lw, err := boot.LaunchLocal(4, 13, workerArgv(), []string{
		workerEnv + "=partition",
		// A suite-wide loss preset would turn the exact heal counts the
		// workers assert into flap counts: pin a clean wire.
		"GUPCXX_UDP_FAULT=",
		"GUPCXX_UDP_SCENARIO=at=3s partition=0,1|2,3; at=6s heal",
	}, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Kill()
	if err := lw.Wait(); err != nil {
		t.Fatalf("partition world failed: %v\noutput:\n%s", err, out.String())
	}
	if got := strings.Count(out.String(), "WORKER_OK scenario=partition"); got != 4 {
		t.Errorf("%d of 4 ranks reported success; output:\n%s", got, out.String())
	}
}
