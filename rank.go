package gupcxx

import (
	"gupcxx/internal/core"
	"gupcxx/internal/gasnet"
)

// Rank is one SPMD process image: its endpoint into the substrate, its
// progress engine, and its collective state. A Rank is confined to the
// goroutine executing it (the one Run spawned for it, or the caller's for
// manually driven worlds); its methods must never be called concurrently.
type Rank struct {
	w           *World
	ep          *gasnet.Endpoint
	eng         *core.Engine
	staticLocal bool // conduit guarantees all ranks co-located (constexpr is_local)
	coll        *collState
	teamWorld   *Team         // cached world-team singleton
	dist        *distRegistry // this rank's dist-object instances
	wire        pendingWire   // outstanding wire-RPC calls
}

// Me returns this rank's index in [0, N()).
func (r *Rank) Me() int { return r.ep.Rank() }

// N returns the number of ranks in the world.
func (r *Rank) N() int { return r.w.Ranks() }

// World returns the owning World.
func (r *Rank) World() *World { return r.w }

// Version reports the emulated library version.
func (r *Rank) Version() Version { return r.w.ver }

// Engine exposes the rank's progress engine (statistics, MakeFuture,
// WhenAll).
func (r *Rank) Engine() *core.Engine { return r.eng }

// OpStats is the op-level observability snapshot returned by
// Rank.OpStats and World.OpStats: the unified pipeline's per-family ×
// per-phase counter matrix, together with the completion-machinery and
// substrate counters it is naturally read alongside.
type OpStats struct {
	// Ops counts pipeline phase transitions per operation family; index
	// as Ops[OpRMA][PhaseEagerCompleted] or via Ops.Of.
	Ops core.OpStats
	// Engine is the completion-machinery statistics (cell allocations,
	// defer-queue pushes, eager deliveries, ...).
	Engine core.Stats
	// Substrate is the wire/queue counter snapshot. It is domain-wide
	// (shared by all ranks of the process), not per-rank.
	Substrate gasnet.Stats
}

// OpStats returns this rank's op-lifecycle counters. Like Engine
// statistics, the counters are owned by the rank's goroutine: read them
// from that goroutine, or only after Run returns.
func (r *Rank) OpStats() OpStats {
	return OpStats{
		Ops:       r.eng.OpStats(),
		Engine:    r.eng.Stats,
		Substrate: r.w.dom.Stats(),
	}
}

// SetPhaseHook installs fn as this rank's pipeline phase observer (nil
// removes it). The hook runs on the rank's goroutine during initiation
// and progress and must not block; a nil hook costs nothing on the op
// fast path.
func (r *Rank) SetPhaseHook(fn core.PhaseHook) { r.eng.SetPhaseHook(fn) }

// Progress runs one step of this rank's progress engine at user level:
// substrate poll, deferred notifications, LPCs. Returns the number of
// events processed.
func (r *Rank) Progress() int { return r.eng.Progress() }

// ProgressInternal advances only internal-level progress (§II-B): inbound
// remote operations targeting this rank are serviced so peers advance,
// but no local notification — future readying, promise fulfillment, LPC,
// RPC, or remote-completion callback — is delivered. Use it inside
// compute loops that must not observe completion state changes.
func (r *Rank) ProgressInternal() int { return r.ep.PollInternal() }

// MakeFuture returns a ready value-less future, the seed of conjoining
// loops.
func (r *Rank) MakeFuture() Future { return r.eng.MakeFuture() }

// WhenAll conjoins value-less futures; see core.Engine.WhenAll for the
// short-circuit semantics.
func (r *Rank) WhenAll(fs ...Future) Future { return r.eng.WhenAll(fs...) }

// NewPromise allocates a value-less promise on this rank.
func (r *Rank) NewPromise() *Promise { return core.NewPromise(r.eng) }

// NewPromiseV allocates a value-carrying promise on rank r (a free
// function because methods cannot introduce type parameters).
func NewPromiseV[T any](r *Rank) *PromiseV[T] { return core.NewPromiseV[T](r.eng) }

// spinWait drives progress until cond holds.
func (r *Rank) spinWait(cond func() bool) {
	for !cond() {
		if r.eng.Progress() == 0 {
			r.eng.Idle()
		}
	}
}

// Serve drives progress like Progress, but relinquishes the CPU when the
// step finds nothing to do, by the substrate's wait policy: a socket-fed
// rank waits at once in its own socket and reads what arrives itself, an
// in-memory one yields while the idle streak is short and parks once the
// wait looks long (gasnet.Endpoint.Idle). This
// is the right shape for loops whose only job is to answer peers (worker
// serve loops, notification waits): a hot Progress spin steals the CPU
// from the very processes it is waiting on when ranks outnumber cores,
// which is every process-per-rank world on a small machine.
func (r *Rank) Serve() int {
	n := r.eng.Progress()
	if n == 0 {
		r.eng.Idle()
	}
	return n
}

// PeerDown reports whether the substrate's liveness detector currently
// declares target unreachable from this rank (always false on conduits
// without a detector). Operations targeting a down peer fail immediately
// with ErrPeerUnreachable. Down is no longer forever: a restarted peer
// that rejoins through the readmission protocol clears it, and a peer
// that went quiet behind a network partition heals back under the same
// incarnation once partition probes get through — so re-check per
// operation rather than caching the answer; a true observed before a
// recovery only means operations issued back then would have failed.
func (r *Rank) PeerDown(target int) bool { return r.ep.PeerDown(target) }

// DownPeers returns the ranks this rank has declared down, in rank order
// (nil when none).
func (r *Rank) DownPeers() []int { return r.ep.DownPeers() }

// Flow returns a snapshot of the reliability flow state toward target:
// smoothed RTT, retransmission timeout, adaptive window, in-flight
// occupancy in datagrams and bytes, and the receive-side reorder-buffer
// occupancy against its byte budget. The zero FlowState is returned on
// conduits without a reliability layer (SMP) and for self/out-of-range
// targets.
func (r *Rank) Flow(target int) FlowState { return r.w.dom.FlowState(r.Me(), target) }

// LocalTo reports whether this rank has direct load/store access to the
// target rank's segment (the two ranks are co-located on one node).
func (r *Rank) LocalTo(target int) bool { return r.localTo(int32(target)) }

// localTo reports whether this rank has direct load/store access to
// target's segment. Under the ConstexprLocal optimization on the SMP
// conduit this is a compile-time constant true; otherwise it is the
// dynamic locality query every RMA call performs (§II-C).
func (r *Rank) localTo(target int32) bool {
	if r.staticLocal {
		return true
	}
	return r.ep.Local(int(target))
}
