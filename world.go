// Package gupcxx is a Go library implementing the Asynchronous Partitioned
// Global Address Space (APGAS) programming model of UPC++, built to
// reproduce the SC'21 paper "Optimization of Asynchronous Communication
// Operations through Eager Notifications" (Kamil & Bonachea).
//
// A job is a World of SPMD ranks, each with a private memory plus a shared
// segment; the union of the segments forms the global address space.
// Ranks address each other's segments through typed global pointers
// (GlobalPtr) and communicate with one-sided RMA (Rput/Rget), remote
// atomics (AtomicDomain), and remote procedure calls (RPC). Asynchronous
// operations notify completion through futures, promises, and callbacks,
// composed via the completion factories re-exported from internal/core.
//
// The headline feature is the eager-notification completion mode: under
// Eager2021_3_6 (the default version), an operation that completes its
// data movement synchronously — because the target is co-located and
// reached by shared-memory bypass — may return an already-ready future
// (with no heap allocation) or skip fulfilling a registered promise
// entirely, removing the progress-queue round trip that the legacy
// deferred semantics impose. See DESIGN.md for the full mapping to the
// paper.
//
// A minimal program:
//
//	cfg := gupcxx.Config{Ranks: 4}
//	err := gupcxx.Launch(cfg, func(r *gupcxx.Rank) {
//		ptr := gupcxx.New[int64](r)            // allocate in my segment
//		ptrs := gupcxx.ExchangePtr(r, ptr)     // allgather the pointers
//		next := ptrs[(r.Me()+1)%r.N()]
//		gupcxx.Rput(r, int64(r.Me()), next).Wait()
//		r.Barrier()
//		fmt.Println(r.Me(), *ptr.Local(r))
//	})
package gupcxx

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gupcxx/internal/boot"
	"gupcxx/internal/core"
	"gupcxx/internal/gasnet"
	"gupcxx/internal/obs"
)

// Version selects which of the paper's three library behaviours the
// runtime emulates; see internal/core.Version.
type Version = core.Version

// The three library versions evaluated in the paper (§IV).
var (
	Legacy2021_3_0 = core.Legacy2021_3_0
	Defer2021_3_6  = core.Defer2021_3_6
	Eager2021_3_6  = core.Eager2021_3_6
)

// Conduit selects the communication substrate; see internal/gasnet.
type Conduit = gasnet.Conduit

// Available conduits.
const (
	SMP  = gasnet.SMP
	PSHM = gasnet.PSHM
	SIM  = gasnet.SIM
	UDP  = gasnet.UDP
)

// ParseConduit converts a conduit name ("smp", "pshm", "sim", "udp") to a
// Conduit.
func ParseConduit(s string) (Conduit, error) { return gasnet.ParseConduit(s) }

// FaultConfig configures the UDP conduit's deterministic fault-injection
// shim; see internal/gasnet/fault.go.
type FaultConfig = gasnet.FaultConfig

// BackpressurePolicy selects how admission reacts to a full per-peer send
// window (Config.Backpressure).
type BackpressurePolicy = gasnet.BackpressurePolicy

// Backpressure policies.
const (
	// BackpressureBlock waits — bounded by Config.BackpressureWait and the
	// operation's deadline — for a window credit before failing with
	// ErrBackpressure.
	BackpressureBlock = gasnet.BackpressureBlock
	// BackpressureFailFast fails the operation with ErrBackpressure
	// immediately when the window is full.
	BackpressureFailFast = gasnet.BackpressureFailFast
)

// FlowState is a snapshot of one peer pair's congestion-control state
// (Rank.Flow): smoothed RTT, current retransmission timeout, adaptive
// window, its occupancy in datagrams and bytes, and the receive-side
// reorder-buffer occupancy against its byte budget.
type FlowState = gasnet.FlowState

// Completion type and factory re-exports: completions are composed by
// passing several Cx values to an operation, the analogue of UPC++'s
// `operation_cx::as_future() | remote_cx::as_rpc(...)`.
type (
	// Cx is a single completion request.
	Cx = core.Cx
	// Future is a value-less asynchronous result.
	Future = core.Future
	// FutureV is an asynchronous result carrying a value.
	FutureV[T any] = core.FutureV[T]
	// Promise tracks completion of any number of value-less operations.
	Promise = core.Promise
	// PromiseV tracks a single value-producing operation.
	PromiseV[T any] = core.PromiseV[T]
	// Result carries the futures produced by an operation.
	Result = core.Result
	// Mode selects eager/deferred/default notification.
	Mode = core.Mode
)

// Completion factory re-exports (§III-A).
var (
	OpFuture       = core.OpFuture
	OpEagerFuture  = core.OpEagerFuture
	OpDeferFuture  = core.OpDeferFuture
	OpPromise      = core.OpPromise
	OpEagerPromise = core.OpEagerPromise
	OpDeferPromise = core.OpDeferPromise
	OpLPC          = core.OpLPC
	// OpContinue is the cell-free completion form: the callback runs
	// inline the moment the operation's outcome is known (at initiation
	// when synchronous, on the progress goroutine at ack time when not),
	// with no future cell allocated — see TUTORIAL.md on continuations
	// vs futures.
	OpContinue = core.OpContinue

	SourceFuture      = core.SourceFuture
	SourceEagerFuture = core.SourceEagerFuture
	SourceDeferFuture = core.SourceDeferFuture
	SourcePromise     = core.SourcePromise
	SourceLPC         = core.SourceLPC

	RemoteRPC = core.RemoteRPC
)

// RemoteRPCOn requests remote completion with the target Rank handle:
// fn runs on the target rank's progress goroutine after data arrival,
// with full access to target-side state.
func RemoteRPCOn(fn func(*Rank)) Cx {
	return core.RemoteRPCCtx(func(ctx any) { fn(ctx.(*Rank)) })
}

// Notification modes for the value-producing operations (Rget, fetching
// atomics), which cannot take a Cx list because their future carries the
// value.
const (
	ModeDefault = core.ModeDefault
	ModeEager   = core.ModeEager
	ModeDefer   = core.ModeDefer
)

// Op-lifecycle instrumentation re-exports: the operation families and
// pipeline phases indexing the Rank.OpStats counter matrix.
type (
	OpKind = core.OpKind
	Phase  = core.Phase
)

const (
	OpRMA    = core.OpRMA
	OpAtomic = core.OpAtomic
	OpRPC    = core.OpRPC
	OpVIS    = core.OpVIS
	OpColl   = core.OpColl

	PhaseInitiated      = core.PhaseInitiated
	PhaseEagerCompleted = core.PhaseEagerCompleted
	PhaseDeferredQueued = core.PhaseDeferredQueued
	PhaseWireAcked      = core.PhaseWireAcked
	PhaseFailed         = core.PhaseFailed
)

// OpDeadline requests that an asynchronous operation's notifications
// resolve with ErrDeadlineExceeded if the substrate has not acknowledged
// within d. It composes with the other completion requests
// (OpFuture() | OpDeadline(d)); the smallest positive bound wins.
var OpDeadline = core.OpDeadline

// Config describes a World.
type Config struct {
	// Ranks is the number of SPMD ranks. Must be >= 1.
	Ranks int

	// Conduit selects the substrate; the zero value is SMP (single node,
	// static locality). Use PSHM for the paper's dynamic-locality
	// single-node runs and SIM for multi-node simulations.
	Conduit Conduit

	// RanksPerNode groups ranks into nodes under the SIM conduit
	// (default 1). Ignored by SMP and PSHM, which are single-node.
	RanksPerNode int

	// SegmentBytes sizes each rank's shared segment
	// (default gasnet.DefaultSegmentBytes).
	SegmentBytes int

	// SimLatency is the one-way cross-node latency injected by the SIM
	// conduit (default 1µs).
	SimLatency time.Duration

	// Fault, when non-nil on the UDP conduit, injects deterministic
	// datagram drop/duplication/reordering from a seeded PRNG on the send
	// path, exercising the conduit's reliability layer (sequencing, acks,
	// retransmission). Collectives and RPCs still complete — slower, with
	// Stats.Retransmits counting the recoveries. Ignored by other
	// conduits. When nil, the GUPCXX_UDP_FAULT environment variable
	// ("drop=0.25,dup=0.05,reorder=0.10,seed=7") is consulted instead.
	Fault *FaultConfig

	// RelWindow bounds the UDP reliability layer's per-pair in-flight
	// datagrams and reorder buffer (default 256). It is the ceiling of the
	// adaptive congestion window, which is halved per loss episode and
	// regrown by slow start between RelWindowMin and this value.
	RelWindow int

	// RelWindowMin is the congestion window's floor: loss never
	// halves the window below it (default 8, clamped to RelWindow).
	RelWindowMin int

	// RelReorderBytes bounds, per rank pair, the memory parked in the UDP
	// receive-side reorder buffer; frames past the budget are shed and
	// repaired by retransmission (default 1 MiB).
	RelReorderBytes int

	// Backpressure selects what happens when an operation targets a peer
	// whose send window is full: BackpressureBlock (default) waits up to
	// BackpressureWait for a credit, then fails the operation with
	// ErrBackpressure; BackpressureFailFast fails it immediately.
	Backpressure BackpressurePolicy

	// BackpressureWait bounds the blocking admission wait (default 2s);
	// an operation's own deadline caps it further.
	BackpressureWait time.Duration

	// RelMaxAttempts is the UDP retransmission budget per datagram;
	// exhausting it declares the destination down instead of retrying
	// forever (default 64).
	RelMaxAttempts int

	// HeartbeatEvery is the UDP liveness heartbeat period (default 5ms).
	HeartbeatEvery time.Duration

	// SuspectAfter is the silence bound before a peer is marked Suspect
	// (recoverable; default 10×HeartbeatEvery).
	SuspectAfter time.Duration

	// DownAfter is the silence bound before a peer is declared Down: its
	// pending and future operations fail with ErrPeerUnreachable (default
	// 40×HeartbeatEvery). Down holds until the peer's NEXT incarnation
	// announces itself through the join/readmission protocol — the dead
	// incarnation itself can never return.
	DownAfter time.Duration

	// Version selects the emulated library behaviour. The zero value
	// selects Eager2021_3_6, the paper's proposed default.
	Version Version

	// MetricsAddr, when non-empty, starts the operations-plane HTTP
	// listener on the given host:port (port 0 picks a free port — read it
	// back via World.MetricsAddr), serving Prometheus text at /metrics
	// and a JSON debug snapshot at /debug/gupcxx. A bind failure fails
	// NewWorld. The empty default leaves the listener off; the event bus
	// and counter mirrors run either way and cost nothing measurable
	// unobserved.
	//
	// In a Multiproc world a fixed (non-zero) port is offset by Self, so
	// one configuration gives every rank of a co-hosted world its own
	// listener: "127.0.0.1:9500" puts rank 0 on 9500, rank 1 on 9501, ….
	// Port 0 is left alone — each rank picks its own free port.
	MetricsAddr string

	// Multiproc selects the process-per-rank deployment shape: this
	// process hosts exactly one rank (Self) of a world whose other ranks
	// are separate OS processes reached over the UDP conduit. Requires
	// Conduit == UDP, a bound SelfConn, and a full Peers table. Normally
	// these four fields are filled by WorldFromEnv from the GUPCXX_WORLD
	// contract rather than by hand. In this mode only Self's Rank exists
	// in this World (Rank(i) is nil for every other i), closure RPC to
	// remote ranks fails with ErrNotWireEncodable, and every pointer
	// crossing the wire must use the EncodePtr/DecodePtr form.
	Multiproc bool

	// Self is this process's rank in a Multiproc world.
	Self int

	// Epoch is this process's incarnation stamp, distributed by the
	// bootstrap exchange: the launch epoch for first-boot ranks, a bumped
	// value for a rank readmitted through the rendezvous server's rejoin
	// path. It rides every conduit frame (stale-incarnation filtering) and
	// seeds the segment-id field of wire-encoded global pointers (see
	// EncodePtr). Zero is treated as 1.
	Epoch uint32

	// Rejoin marks this process as a restarted rank joining an
	// already-running world (WorldFromEnv sets it from the bootstrap
	// outcome). A rejoining rank broadcasts join frames each heartbeat
	// round until every live peer has readmitted it; without the flag a
	// restarted rank would wait on peers that silently drop its
	// new-incarnation frames. Only meaningful with Multiproc.
	Rejoin bool

	// Peers is the rank-indexed UDP address table of a Multiproc world.
	Peers []netip.AddrPort

	// SelfConn is this rank's bound UDP socket (the bootstrap exchange
	// binds it before publishing its address). The World takes ownership.
	SelfConn *net.UDPConn
}

// World is one job instance: the substrate domain plus per-rank runtime
// state. Create it with NewWorld and drive it with Run, or use Launch.
type World struct {
	dom   *gasnet.Domain
	ranks []*Rank
	ver   Version

	// multiproc mirrors Config.Multiproc. Wire-encoded pointers stamp the
	// target rank's incarnation-derived segment id (gptrwire.go).
	multiproc bool

	// rpcHandlers is the registry of wire-safe RPC procedures (see
	// rpcwire.go); append-only, fixed before Run.
	rpcHandlers []RPCHandler

	// Operations plane (obs.go): the always-on event bus and per-rank
	// counter mirrors, the per-family×phase latency histograms fed by
	// PhaseSampler, and — only when Config.MetricsAddr is set — the HTTP
	// export surface, its rate sampler, and the world-owned
	// recent-events subscription backing the debug snapshot.
	bus     *obs.Bus
	mirrors []*core.OpsMirror
	hists   *obs.HistVec
	obsSrv  *obs.Server
	sampler *obs.Sampler
	evmu    sync.Mutex // guards evsub draining and the recent ring
	evsub   *obs.Subscription
	recent  []obs.Event
}

// NewWorld validates cfg and constructs the job.
func NewWorld(cfg Config) (*World, error) {
	if cfg.Version.Name == "" {
		cfg.Version = Eager2021_3_6
	}
	bus := obs.NewBus(0)
	dom, err := gasnet.NewDomain(gasnet.Config{
		Ranks:            cfg.Ranks,
		Conduit:          cfg.Conduit,
		RanksPerNode:     cfg.RanksPerNode,
		SegmentBytes:     cfg.SegmentBytes,
		SimLatency:       cfg.SimLatency,
		Fault:            cfg.Fault,
		RelWindow:        cfg.RelWindow,
		RelWindowMin:     cfg.RelWindowMin,
		RelReorderBytes:  cfg.RelReorderBytes,
		Backpressure:     cfg.Backpressure,
		BackpressureWait: cfg.BackpressureWait,
		RelMaxAttempts:   cfg.RelMaxAttempts,
		HeartbeatEvery:   cfg.HeartbeatEvery,
		SuspectAfter:     cfg.SuspectAfter,
		DownAfter:        cfg.DownAfter,
		Multiproc:        cfg.Multiproc,
		Self:             cfg.Self,
		Peers:            cfg.Peers,
		SelfConn:         cfg.SelfConn,
		Epoch:            cfg.Epoch,
		Rejoin:           cfg.Rejoin,
		Events:           bus,
	})
	if err != nil {
		return nil, err
	}
	w := &World{
		dom:       dom,
		ver:       cfg.Version,
		multiproc: cfg.Multiproc,
		bus:       bus,
		hists:     obs.NewHistVec(int(core.NumOpKinds), int(core.NumPhases)),
	}
	dom.RegisterHandler(hRPCExec, handleRPCExec)
	dom.RegisterHandler(hColl, handleColl)
	dom.RegisterHandler(hRPCWireReq, handleRPCWireReq)
	// A wire-RPC reply completes the call this rank started: its frame's
	// transport ack may ride this rank's next request (DESIGN.md §8.2).
	dom.RegisterReplyHandler(hRPCWireRep, handleRPCWireRep)
	// The put-with-notify dispatcher: a notify-put's data has been applied
	// and acked by the substrate; the carried handler id and argument
	// bytes resolve against the world's wire-RPC registry on the receiving
	// rank's goroutine. Unknown ids and handler panics are counted and
	// contained — a notify has no reply path to carry the failure.
	dom.SetNotifyHook(func(ep *gasnet.Endpoint, id uint32, args []byte) {
		nr := rankOf(ep)
		if int(id) >= len(w.rpcHandlers) {
			dom.NoteBadHandler()
			return
		}
		nr.runContained(func(hr *Rank) { w.rpcHandlers[id](hr, args) })
	})
	w.ranks = make([]*Rank, cfg.Ranks)
	staticLocal := dom.Config().StaticLocal() && cfg.Version.ConstexprLocal
	for i := 0; i < cfg.Ranks; i++ {
		if cfg.Multiproc && i != cfg.Self {
			// Remote ranks live in other processes: no Rank handle exists
			// for them here. The slice keeps its full length so rank
			// indices stay meaningful.
			continue
		}
		ep := dom.Endpoint(i)
		r := &Rank{
			w:           w,
			ep:          ep,
			eng:         core.NewEngine(i, cfg.Version),
			staticLocal: staticLocal,
			coll:        newCollState(),
		}
		r.eng.SetPoller(ep.Poll)
		r.eng.SetParker(ep.Idle)
		ep.Ctx = r
		// When the substrate declares a peer dead it fails its own op-table
		// entries; the hook extends the sweep to the runtime layer's
		// wire-RPC calls, which track their cookies outside the op table.
		// The death generation scopes the sweep to calls issued against the
		// incarnation that just died — calls already retargeting a
		// readmitted successor survive.
		ep.SetPeerDownHook(func(peer int, err error) {
			r.wire.failPeer(peer, ep.DownGen(peer), err)
		})
		// Credit-based admission: remote descriptors that set Admit are
		// checked against the target's send window before injecting, so a
		// saturated peer surfaces as ErrBackpressure (a completion value)
		// instead of an unbounded block inside the reliability layer.
		r.eng.SetAdmitter(ep.AdmitSend)
		// Each engine publishes its plain-int64 counters into an
		// all-atomic mirror every few progress steps, so the metrics
		// endpoint can read a live world without racing the hot path.
		m := &core.OpsMirror{}
		r.eng.SetMirror(m)
		w.mirrors = append(w.mirrors, m)
		// Deadline expiries happen on the rank goroutine during sweep;
		// surface them on the event bus with the op family as payload
		// (there is no single peer to blame, hence Peer: -1).
		rank := int32(i)
		r.eng.SetExpiryHook(func(k core.OpKind) {
			bus.Publish(obs.Event{
				Kind: obs.EvDeadlineExpired, Rank: rank, Peer: -1, A: int64(k),
			})
		})
		w.ranks[i] = r
	}
	if cfg.MetricsAddr != "" {
		addr := cfg.MetricsAddr
		if cfg.Multiproc {
			addr, err = offsetPort(addr, cfg.Self)
			if err != nil {
				dom.Close()
				return nil, fmt.Errorf("gupcxx: metrics listener: %w", err)
			}
		}
		if err := w.startObsServer(addr); err != nil {
			dom.Close()
			return nil, fmt.Errorf("gupcxx: metrics listener: %w", err)
		}
	}
	return w, nil
}

// offsetPort rewrites host:port to host:(port+by), leaving port 0 (pick a
// free port) alone — the per-rank listener spacing a Multiproc world
// applies to one shared MetricsAddr configuration.
func offsetPort(addr string, by int) (string, error) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return "", err
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("port %q: %w", portStr, err)
	}
	if port == 0 {
		return addr, nil
	}
	port += by
	if port > 65535 {
		return "", fmt.Errorf("port %d+%d exceeds 65535", port-by, by)
	}
	return net.JoinHostPort(host, strconv.Itoa(port)), nil
}

// WorldFromEnv joins the process-per-rank world named by the GUPCXX_WORLD
// environment variable: it runs the bootstrap exchange (bind the UDP
// socket, learn the epoch-stamped peer table, pass the startup barrier)
// and constructs the one-rank-per-process World on top. ok is false — with
// the cfg-built standalone World NOT constructed and a nil *World — when
// the variable is unset: the caller decides what a standalone run means.
// cfg supplies everything the world contract does not (version, segment
// size, timeouts, MetricsAddr, …); its Ranks/Conduit/Multiproc fields are
// overwritten from the contract.
func WorldFromEnv(cfg Config) (w *World, ok bool, err error) {
	spec, ok, err := boot.FromEnv()
	if err != nil || !ok {
		return nil, false, err
	}
	bs, err := boot.Bootstrap(spec)
	if err != nil {
		return nil, false, err
	}
	cfg.Ranks = spec.Ranks
	cfg.Conduit = UDP
	cfg.Multiproc = true
	cfg.Self = spec.Rank
	cfg.Epoch = bs.Epoch
	cfg.Rejoin = bs.Rejoin
	cfg.Peers = bs.Peers
	cfg.SelfConn = bs.Conn
	w, err = NewWorld(cfg)
	if err != nil {
		bs.Conn.Close()
		return nil, false, err
	}
	return w, true, nil
}

// Ranks reports the number of ranks in the world.
func (w *World) Ranks() int { return w.dom.Ranks() }

// Version reports the emulated library version.
func (w *World) Version() Version { return w.ver }

// Rank returns rank i's handle. Outside of Run, a Rank may be driven
// manually from a single goroutine (used by tests and single-rank tools);
// concurrent use of one Rank is not allowed. In a Multiproc world only
// Self's handle exists; every other index returns nil.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Self returns this process's Rank handle in a Multiproc world, or nil
// for in-process worlds (where every rank is equally "self").
func (w *World) Self() *Rank {
	if !w.multiproc {
		return nil
	}
	return w.ranks[w.dom.Config().Self]
}

// Multiproc reports whether this World is one rank of a process-per-rank
// world.
func (w *World) Multiproc() bool { return w.multiproc }

// Rejoined reports whether this process joined an already-running world
// as a restarted rank (the bootstrap exchange answered with a bumped
// epoch). A rejoined world announces its new incarnation to the
// survivors until readmitted; application code can use this to skip
// launch-time collectives the surviving ranks will not re-run.
func (w *World) Rejoined() bool { return w.dom.Config().Rejoin }

// Incarnation returns this process's incarnation stamp: the normalized
// world epoch, bumped for readmitted ranks. In-process worlds always
// report 1: Config.Epoch is honoured only with Multiproc.
func (w *World) Incarnation() uint32 { return w.dom.Incarnation() }

// Domain exposes the underlying substrate domain (instrumentation and
// tests).
func (w *World) Domain() *gasnet.Domain { return w.dom }

// Run executes fn once per rank, each on its own goroutine, SPMD-style,
// and returns after all ranks complete. A panic on any rank is captured
// and returned as an error after the surviving ranks are abandoned (the
// World must not be reused after a panic). In a Multiproc world only
// Self's rank exists in this process, so Run executes fn exactly once —
// the SPMD fan-out is the launcher's job there (one process per rank),
// not this World's.
func (w *World) Run(fn func(*Rank)) error {
	var wg sync.WaitGroup
	errs := make([]error, len(w.ranks))
	for i, r := range w.ranks {
		if r == nil {
			continue // multiproc: rank lives in another process
		}
		wg.Add(1)
		go func(i int, r *Rank) {
			defer wg.Done()
			// Publish the final counter state: the periodic mirror flush
			// runs every few progress steps, so without this tail flush a
			// scrape after Run could miss the last interval's ops.
			defer r.eng.FlushMirror()
			defer func() {
				if p := recover(); p != nil {
					if ab, ok := p.(rankAbort); ok {
						// A deliberate unwind out of a blocking protocol
						// (collective abort on peer death): surface the
						// carried error with its errors.Is chain intact.
						errs[i] = fmt.Errorf("rank %d: %w", i, ab.err)
						return
					}
					buf := make([]byte, 16<<10)
					buf = buf[:runtime.Stack(buf, false)]
					errs[i] = fmt.Errorf("rank %d panicked: %v\n%s", i, p, buf)
				}
			}()
			fn(r)
			if w.multiproc {
				w.drainWire(r)
			}
		}(i, r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// drainWire quiesces a multiproc rank between fn returning and the world
// closing. A rank can complete its side of a final collective while the
// tokens it sent are still unacknowledged — or lost, needing a
// retransmission only this process can provide. Closing immediately
// would announce departure (the goodbye frame marks this rank Down at
// its peers on receipt) while a slower peer is still waiting on one of
// those frames, turning a clean SPMD exit into a spurious collective
// abort there. So: keep driving progress until the reliability layer
// reports nothing in flight toward any live peer — everything this rank
// ever sent is then known-delivered, and nothing a correct peer waits on
// can depend on us staying up. Down peers are excluded (their acks will
// never come) and a deadline backstops the loop against a peer that dies
// without detection mid-drain.
func (w *World) drainWire(r *Rank) {
	self := w.dom.Config().Self
	// Staged sends are not in flight yet: ship them so the count below
	// sees them.
	r.ep.Flush()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		pending := r.ep.PendingOps()
		for p := 0; p < w.Ranks() && pending == 0; p++ {
			if p == self || r.ep.PeerDown(p) {
				continue
			}
			pending += w.dom.FlowState(self, p).InFlight
		}
		if pending == 0 {
			return
		}
		r.Serve()
	}
}

// Stats aggregates the completion-machinery statistics of every rank's
// progress engine. Call it only when no rank is actively running (after
// Run returns) — the counters are owned by the rank goroutines.
func (w *World) Stats() core.Stats {
	var total core.Stats
	for _, r := range w.ranks {
		if r == nil {
			continue
		}
		s := r.eng.Stats
		total.CellAllocs += s.CellAllocs
		total.DeferQPushes += s.DeferQPushes
		total.LPCRuns += s.LPCRuns
		total.ProgressCalls += s.ProgressCalls
		total.WhenAllBuilt += s.WhenAllBuilt
		total.WhenAllElided += s.WhenAllElided
		total.ReadyHits += s.ReadyHits
		total.LegacyAllocs += s.LegacyAllocs
		total.EagerDeliveries += s.EagerDeliveries
	}
	return total
}

// OpStats aggregates the op-lifecycle counters of every rank: the phase
// matrices and engine statistics sum across ranks, and the substrate
// snapshot (domain-wide already) is included once. Call it only when no
// rank is actively running.
func (w *World) OpStats() OpStats {
	var total OpStats
	for _, r := range w.ranks {
		if r == nil {
			continue
		}
		ops := r.eng.OpStats()
		total.Ops.Add(&ops)
	}
	total.Engine = w.Stats()
	total.Substrate = w.dom.Stats()
	return total
}

// SetFault replaces rank's UDP send-path fault distribution mid-run
// (e.g. Drop:1 to simulate killing the rank after a healthy start). The
// fault layer is always interposed on UDP worlds — idle it costs one
// atomic load per write — so no construction-time arming is needed.
func (w *World) SetFault(rank int, cfg FaultConfig) error {
	return w.dom.SetFault(rank, cfg)
}

// SetPairFault installs a directional fault distribution on datagrams
// from→to only — the asymmetric-loss primitive. See Domain.SetPairFault.
func (w *World) SetPairFault(from, to int, cfg FaultConfig) error {
	return w.dom.SetPairFault(from, to, cfg)
}

// SetPartition severs the network between the given rank groups at the
// senders this process hosts: every datagram (heartbeats and partition
// probes included) between ranks in different groups is dropped. Ranks
// not listed form an implicit group of their own. The liveness machine
// then declares the cut pairs Down; HealPartition restores the network
// and lets them heal back to Alive under the same incarnation. In a
// multiproc world each process applies its own senders' half — coordinate
// with the GUPCXX_UDP_SCENARIO DSL.
func (w *World) SetPartition(groups [][]int) error {
	return w.dom.SetPartition(groups)
}

// HealPartition removes the partition installed by SetPartition.
func (w *World) HealPartition() error {
	return w.dom.HealPartition()
}

// StartScenario arms a phased network scenario against this world's
// senders, e.g. "at=2s partition=0,1|2,3; at=6s heal". See the scenario
// DSL grammar in DESIGN.md §16; GUPCXX_UDP_SCENARIO arms the same thing
// at construction.
func (w *World) StartScenario(spec string) error {
	return w.dom.StartScenario(spec)
}

// Close releases substrate resources (the UDP conduit's sockets and
// reader goroutines) and tears down the observability surface (metrics
// listener, rate sampler); it is idempotent. Ranks must not be driven
// after Close. Event subscriptions obtained from SubscribeEvents stay
// drainable — Close stops the event sources, not the consumers.
func (w *World) Close() {
	w.closeObs()
	w.dom.Close()
}

// Launch is the one-call entry point: construct a World from cfg, Run fn
// on every rank, and Close the world.
func Launch(cfg Config, fn func(*Rank)) error {
	w, err := NewWorld(cfg)
	if err != nil {
		return err
	}
	defer w.Close()
	return w.Run(fn)
}
