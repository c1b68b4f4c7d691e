package gasnet

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"gupcxx/internal/obs"
)

// Domain is one gasnet job: the set of segments, endpoints, and the handler
// table shared by all ranks. A Domain is created once and its endpoints are
// then driven concurrently, one goroutine per rank.
type Domain struct {
	cfg      Config
	segs     []*Segment
	eps      []*Endpoint
	handlers [MaxHandlers]HandlerFunc

	// inc is this process's incarnation: the epoch it registered under
	// (normalized so 0 — in-process worlds, which cannot restart — becomes
	// 1). Every frame this domain puts on the wire is stamped with it, and
	// peers reject frames from any other incarnation of this rank
	// (liveness.go). Immutable after construction.
	inc uint32

	// amSends counts cross-endpoint active messages, for tests and
	// instrumentation.
	amSends atomic.Int64

	// arena is the domain's wire-buffer pool (pool.go): encode staging,
	// received datagrams, and RMA payload staging all draw from it.
	arena bufArena

	// Fast-path instrumentation (see Stats).
	datagramsSent    atomic.Int64
	coalescedBatches atomic.Int64
	coalescedMsgs    atomic.Int64
	tickFlushes      atomic.Int64
	tickReads        atomic.Int64

	// Batched-syscall instrumentation (see Stats, mmsg_linux.go). Counted
	// only by the real mmsg path, so the portable fallback's zeros make
	// the active datapath observable.
	sendmmsgCalls   atomic.Int64
	recvmmsgCalls   atomic.Int64
	sendBatchFrames atomic.Int64
	recvBatchFrames atomic.Int64
	sendBatchHW     atomic.Int64
	recvBatchHW     atomic.Int64

	// Reliability-layer instrumentation (see Stats and reliable.go).
	retransmits      atomic.Int64
	fastRetransmits  atomic.Int64
	sackAcks         atomic.Int64
	dupsDropped      atomic.Int64
	acksPiggybacked  atomic.Int64
	acksStandalone   atomic.Int64
	outOfWindowDrops atomic.Int64
	faultsInjected   atomic.Int64
	decodeErrors     atomic.Int64

	// Liveness / failure-path instrumentation (see Stats, liveness.go).
	heartbeatsSent      atomic.Int64
	peersSuspected      atomic.Int64
	peersDown           atomic.Int64
	retransmitExhausted atomic.Int64
	downPeerFails       atomic.Int64
	badCookieDrops      atomic.Int64
	badHandlerDrops     atomic.Int64
	handlerPanics       atomic.Int64

	// Churn / readmission instrumentation (see Stats, liveness.go).
	staleIncarnationDrops atomic.Int64
	peersReadmitted       atomic.Int64
	joinsSent             atomic.Int64

	// Partition / healing instrumentation (see Stats, liveness.go,
	// fault.go).
	peersHealed    atomic.Int64
	probesSent     atomic.Int64
	partitionDrops atomic.Int64

	// Flow-control instrumentation (see Stats, reliable.go,
	// backpressure.go).
	backpressureFails atomic.Int64
	windowShrinks     atomic.Int64
	windowGrows       atomic.Int64
	rtoExpirations    atomic.Int64
	shedBytes         atomic.Int64
	shedFrames        atomic.Int64

	// Wire-boundary instrumentation (see Stats): wire requests refused for
	// an out-of-segment address, datagram send syscalls that failed
	// (treated as loss), and gptr decodes rejected by the runtime layer's
	// bounds validation (NoteGptrReject).
	badAddrDrops atomic.Int64
	sendErrors   atomic.Int64
	gptrRejects  atomic.Int64

	// notifyHook is the runtime layer's put-with-notify dispatcher
	// (SetNotifyHook): invoked on the receiving rank's goroutine during
	// user-level progress with the registered-handler id and argument
	// bytes a notify-put carried.
	notifyHook func(ep *Endpoint, id uint32, args []byte)

	// udp is the socket transport — the hosted ranks and their peer rows —
	// and rel the ticker that drives reliability and the failure detector
	// over them. Invariant: on the UDP conduit both are non-nil (initUDP
	// builds them together), on every other conduit both are nil — so code
	// reachable only on UDP uses them unguarded, and code reachable on any
	// conduit tests one of them, or an Endpoint's host.
	udp *udpTransport
	rel *reliability

	// scen is the armed network scenario (scenario.go), stepped by the
	// reliability ticker via faultTick; nil when no scenario is armed.
	scen atomic.Pointer[scenario]

	// bus is the operations plane's event bus (Config.Events); nil when
	// the job runs unobserved. Emission points go through emit, which is
	// nil-safe and non-blocking.
	bus *obs.Bus

	// fns parks the closures of UDP messages in flight (fntable.go).
	fns fnTable
}

// emit publishes one substrate health event. Safe to call from any
// goroutine (ticker, socket readers, rank goroutines) and from under a
// peer mutex: the bus is lock-free and never blocks. Timestamps come
// from the cached clock — event consumers want ordering and rough
// placement, not syscall-fresh precision.
func (d *Domain) emit(k obs.EventKind, rank, peer int, a, b int64) {
	if d.bus == nil {
		return
	}
	d.bus.Publish(obs.Event{
		Kind: k,
		Time: clockNow(),
		Rank: int32(rank),
		Peer: int32(peer),
		A:    a,
		B:    b,
	})
}

// LivenessState reports rank local's current view of peer as a metric
// label: "alive", "suspect", or "down". Conduits without a failure
// detector — and ranks hosted by another process, whose view this process
// does not hold — report every peer alive; a rank's view of itself is
// "self".
// Race-safe (atomic reads) and callable from any goroutine.
func (d *Domain) LivenessState(local, peer int) string {
	if local == peer {
		return "self"
	}
	p := d.peer(local, peer)
	if p == nil {
		return "alive"
	}
	switch p.state.Load() {
	case peerSuspect:
		return "suspect"
	case peerDown:
		return "down"
	default:
		return "alive"
	}
}

// Incarnation returns this process's epoch-stamped identity: the epoch it
// registered under (1 for in-process worlds, which cannot restart).
func (d *Domain) Incarnation() uint32 { return d.inc }

// IncarnationOf reports rank local's current record of peer's
// incarnation: the stamp it accepts on peer's frames. 0 means local has
// never heard from peer (possible only on a rejoined rank, whose record
// starts empty and adopts from traffic). A rank's view of itself — and
// every view on conduits without a failure detector — is the domain's own
// incarnation. Race-safe; callable from any goroutine.
func (d *Domain) IncarnationOf(local, peer int) uint32 {
	if p := d.peer(local, peer); p != nil && local != peer {
		return p.inc.Load()
	}
	return d.inc
}

// Stats is a snapshot of the substrate's fast-path counters, the wire/queue
// analogue of core.Stats: tests assert the cost model (lock-free pushes,
// zero-allocation buffer recycling, datagram coalescing) against it.
type Stats struct {
	// RingPushes counts inbox entries that took the lock-free MPSC ring
	// (tallied at delivery, so the producer path stays contention-free).
	// An entry is one message in memory, and one received frame — all
	// the messages of one datagram — on the UDP conduit.
	RingPushes int64
	// BacklogSpills counts inbox entries that overflowed into the
	// mutex-guarded backlog.
	BacklogSpills int64
	// PoolHits / PoolMisses count wire-buffer arena requests served from
	// the pool vs. freshly allocated.
	PoolHits   int64
	PoolMisses int64
	// DatagramsSent counts logical UDP datagrams written (after
	// coalescing, excluding retransmissions and standalone acks, which
	// have their own counters below) — the protocol's decision count, so
	// coalescing economics stay assertable under injected loss.
	DatagramsSent int64
	// CoalescedBatches counts datagrams that carried more than one packed
	// message; CoalescedMsgs counts the messages inside them.
	CoalescedBatches int64
	CoalescedMsgs    int64
	// TickFlushes counts staged datagrams the reliability ticker shipped
	// because their sender made no progress call for a whole tick (the
	// send rule's backstop, DESIGN.md §7.3). A rank that polls ships its
	// own; nonzero means some rank computed with sends staged.
	TickFlushes int64
	// TickReads counts datagrams the reliability ticker read off a
	// socket: a rank's own reads happen when it waits or polls, and the
	// ticker's drain serves one that does neither for a whole tick
	// (DESIGN.md §7.1). Low against the datagrams received means the
	// ranks read their own sockets.
	TickReads int64
	// SendmmsgCalls / RecvmmsgCalls count vectorized I/O syscalls issued
	// by the batched datapath (mmsg_linux.go); SendBatchFrames /
	// RecvBatchFrames count the datagrams they moved, so frames-per-call
	// is derivable; the HighWater fields record the largest single call
	// each way. A non-blocking read that finds nothing queued moves no
	// datagram and is not counted. All six stay zero on the sequential fallback path
	// (non-Linux), making the active datapath — and the syscall
	// amortization itself — assertable: a coalesced burst of N
	// frames to distinct destinations is N datagrams but one
	// SendmmsgCall.
	SendmmsgCalls      int64
	RecvmmsgCalls      int64
	SendBatchFrames    int64
	RecvBatchFrames    int64
	SendBatchHighWater int64
	RecvBatchHighWater int64
	// Retransmits counts datagrams re-sent by the reliability layer: on
	// the acks' evidence of loss, or when the retransmission timer expired.
	Retransmits int64
	// FastRetransmits is the subset of Retransmits the acks triggered —
	// a frame with three SACKed frames above it, or the next hole a partial
	// ack uncovered during recovery — sent from the socket reader without
	// waiting for a timer. Retransmits − FastRetransmits were timer-driven.
	FastRetransmits int64
	// SackAcks counts standalone acks that carried a SACK bitmap: the
	// receiver held frames parked beyond a gap.
	SackAcks int64
	// DupsDropped counts received datagrams suppressed as duplicates
	// (already delivered, or already parked in the reorder buffer).
	DupsDropped int64
	// AcksPiggybacked counts pending acknowledgments that rode on an
	// outgoing payload datagram; AcksStandalone counts dedicated ack
	// datagrams (idle-timeout, ack-every, or duplicate-triggered).
	AcksPiggybacked int64
	AcksStandalone  int64
	// OutOfWindowDrops counts received datagrams discarded because their
	// sequence lies beyond the receive window.
	OutOfWindowDrops int64
	// FaultsInjected counts datagrams dropped, duplicated, or reordered by
	// the fault-injection shim (Config.Fault).
	FaultsInjected int64
	// DecodeErrors counts received datagrams dropped as truncated or
	// corrupt, whole or past a valid prefix of their messages — one per
	// datagram.
	DecodeErrors int64
	// RemoteOpsStarted / RemoteOpsAcked count remote operations
	// registered in the endpoints' op tables and completion queues and
	// the replies (per-op or cumulative) and nacks that retired them —
	// the substrate half of the runtime's op-lifecycle instrumentation.
	// Started minus acked minus failed is the number of operations still
	// in flight.
	RemoteOpsStarted int64
	RemoteOpsAcked   int64
	// RemoteOpsFailed counts op-table and completion-queue entries retired
	// with an error instead of a reply (peer declared down).
	RemoteOpsFailed int64
	// HeartbeatsSent counts liveness heartbeat frames shipped by the
	// detector's ticker (liveness.go).
	HeartbeatsSent int64
	// PeersSuspected / PeersDown count pairwise liveness transitions: a
	// peer falling silent past SuspectAfter, and a peer declared dead
	// (silence past DownAfter or retransmission-budget exhaustion).
	PeersSuspected int64
	PeersDown      int64
	// RetransmitExhausted counts send streams whose retransmission budget
	// (Config.RelMaxAttempts) ran out, each declaring its peer down.
	RetransmitExhausted int64
	// DownPeerFails counts operations failed with ErrPeerUnreachable —
	// completion-table sweeps plus injections refused because the target
	// was already down.
	DownPeerFails int64
	// BadCookieDrops counts acknowledgments discarded because their
	// cookie matched no outstanding operation of their reply kind (stale
	// replies from a declared-dead peer, or corrupt or forged frames);
	// BadHandlerDrops counts
	// messages discarded for an unregistered handler id. Both were fatal
	// before the failure path existed; inbound datagrams are not trusted
	// to crash the job.
	BadCookieDrops  int64
	BadHandlerDrops int64
	// HandlerPanics counts RPC handler panics contained by the runtime
	// layer and serialized into error replies (NoteHandlerPanic).
	HandlerPanics int64
	// StaleIncarnationDrops counts frames rejected because their
	// incarnation stamp did not match the sender's recorded incarnation —
	// the dead process's datagrams draining out of the network, or a
	// restarted peer's traffic arriving ahead of its join announcement.
	// Never delivered, never refreshing liveness.
	StaleIncarnationDrops int64
	// PeersReadmitted counts Down→Readmitted transitions: a restarted
	// peer's join accepted, with the pair's reliability state fully reset.
	PeersReadmitted int64
	// JoinsSent counts incarnation announcements shipped by a restarted
	// rank while rejoining (retried each heartbeat round until peers ack
	// new-incarnation traffic).
	JoinsSent int64
	// PeersHealed counts Down→Healed transitions: a silence-declared
	// (partitioned) peer authenticated by a probe under the SAME
	// incarnation, with the pair's parked reliability state re-armed —
	// recovery without readmission.
	PeersHealed int64
	// ProbesSent counts partition probe and probe-ack frames shipped at
	// silence-declared-Down peers (paced per pair, backing off to
	// probeGapMax heartbeat rounds).
	ProbesSent int64
	// PartitionDrops counts datagrams cut by an armed partition
	// (SetPartition / scenario DSL) — send-side, like FaultsInjected, but
	// counted separately so a test can tell injected loss from a severed
	// link.
	PartitionDrops int64
	// RelInflightHighWater / RelReorderHighWater are the maxima, over all
	// rank pairs, of the reliability layer's in-flight retransmission
	// queue and receive-side reorder buffer — both bounded by
	// Config.RelWindow; the high-water marks make capacity pressure
	// observable.
	RelInflightHighWater int64
	RelReorderHighWater  int64
	// BackpressureFails counts operations refused admission because the
	// target's send window stayed full (ErrBackpressure) — immediately
	// under the fail-fast policy, after the bounded wait under the
	// blocking one.
	BackpressureFails int64
	// WindowShrinks / WindowGrows count congestion-window moves: the
	// one halving that opens a recovery episode (on the acks' evidence of
	// loss or a timer expiry), and the growth on cleanly-sampled acks.
	WindowShrinks int64
	WindowGrows   int64
	// RTOExpirations counts expiries of a pair's retransmission timer — a
	// full RTO without ack progress — the timer-level loss events, as
	// opposed to Retransmits, which counts datagrams re-sent.
	RTOExpirations int64
	// ShedBytes / ShedFrames count out-of-order frames dropped by the
	// receive-side byte budget (Config.RelReorderBytes); the sender
	// repairs them by retransmission.
	ShedBytes  int64
	ShedFrames int64
	// InMemFallbacks is always 0: every UDP message crosses the wire,
	// closures by handle (fntable.go). It stays while the benchmark reads
	// it.
	InMemFallbacks int64
	// BadAddrDrops counts inbound wire requests (put/get/atomic/notify)
	// refused because their target offset or length fell outside this
	// rank's segment, or their atomic op code was invalid. The requester
	// receives an addressing-error reply (ErrBadAddress), never a panic:
	// wire input is untrusted.
	BadAddrDrops int64
	// SendErrors counts datagram writes that failed at the socket and were
	// treated as wire loss (the reliability layer repairs or, persisting,
	// declares the peer down).
	SendErrors int64
	// GptrRejects counts wire-encoded global pointers the runtime layer
	// refused to decode (bad rank, foreign segment id, out-of-segment
	// offset) — counted drops, never panics.
	GptrRejects int64
}

// Stats returns a snapshot of the substrate fast-path counters, aggregated
// over all endpoints.
func (d *Domain) Stats() Stats {
	s := Stats{
		PoolHits:           d.arena.hits.Load(),
		PoolMisses:         d.arena.misses.Load(),
		DatagramsSent:      d.datagramsSent.Load(),
		CoalescedBatches:   d.coalescedBatches.Load(),
		CoalescedMsgs:      d.coalescedMsgs.Load(),
		TickFlushes:        d.tickFlushes.Load(),
		TickReads:          d.tickReads.Load(),
		SendmmsgCalls:      d.sendmmsgCalls.Load(),
		RecvmmsgCalls:      d.recvmmsgCalls.Load(),
		SendBatchFrames:    d.sendBatchFrames.Load(),
		RecvBatchFrames:    d.recvBatchFrames.Load(),
		SendBatchHighWater: d.sendBatchHW.Load(),
		RecvBatchHighWater: d.recvBatchHW.Load(),

		Retransmits:      d.retransmits.Load(),
		FastRetransmits:  d.fastRetransmits.Load(),
		SackAcks:         d.sackAcks.Load(),
		DupsDropped:      d.dupsDropped.Load(),
		AcksPiggybacked:  d.acksPiggybacked.Load(),
		AcksStandalone:   d.acksStandalone.Load(),
		OutOfWindowDrops: d.outOfWindowDrops.Load(),
		FaultsInjected:   d.faultsInjected.Load(),
		DecodeErrors:     d.decodeErrors.Load(),

		HeartbeatsSent:      d.heartbeatsSent.Load(),
		PeersSuspected:      d.peersSuspected.Load(),
		PeersDown:           d.peersDown.Load(),
		RetransmitExhausted: d.retransmitExhausted.Load(),
		DownPeerFails:       d.downPeerFails.Load(),
		BadCookieDrops:      d.badCookieDrops.Load(),
		BadHandlerDrops:     d.badHandlerDrops.Load(),
		HandlerPanics:       d.handlerPanics.Load(),

		StaleIncarnationDrops: d.staleIncarnationDrops.Load(),
		PeersReadmitted:       d.peersReadmitted.Load(),
		JoinsSent:             d.joinsSent.Load(),
		PeersHealed:           d.peersHealed.Load(),
		ProbesSent:            d.probesSent.Load(),
		PartitionDrops:        d.partitionDrops.Load(),

		BackpressureFails: d.backpressureFails.Load(),
		WindowShrinks:     d.windowShrinks.Load(),
		WindowGrows:       d.windowGrows.Load(),
		RTOExpirations:    d.rtoExpirations.Load(),
		ShedBytes:         d.shedBytes.Load(),
		ShedFrames:        d.shedFrames.Load(),

		BadAddrDrops: d.badAddrDrops.Load(),
		SendErrors:   d.sendErrors.Load(),
		GptrRejects:  d.gptrRejects.Load(),
	}
	for _, ep := range d.eps {
		s.RingPushes += ep.inbox.fastPushes.Load()
		s.BacklogSpills += ep.inbox.spills.Load()
		s.RemoteOpsStarted += ep.ops.started.Load()
		s.RemoteOpsAcked += ep.ops.acked.Load()
		s.RemoteOpsFailed += ep.ops.failed.Load()
	}
	if d.udp != nil {
		for _, h := range d.udp.hosts {
			for i := range h.peers {
				p := &h.peers[i]
				p.mu.Lock()
				s.RelInflightHighWater = max(s.RelInflightHighWater, int64(p.inflightHW))
				s.RelReorderHighWater = max(s.RelReorderHighWater, int64(p.reorderHW))
				p.mu.Unlock()
			}
		}
	}
	return s
}

// NoteBadCookie counts one acknowledgment dropped for an unknown cookie
// (exposed for the runtime layer's own completion tables, which face the
// same stale-reply hazard as the substrate's).
func (d *Domain) NoteBadCookie() { d.badCookieDrops.Add(1) }

// NoteHandlerPanic counts one contained RPC handler panic (the runtime
// layer recovers the panic and serializes it into an error reply; this is
// the substrate-visible tally).
func (d *Domain) NoteHandlerPanic() { d.handlerPanics.Add(1) }

// NoteBadHandler counts one message dropped for an id unknown to the
// runtime layer's own handler registry (the wire-RPC/notify table faces
// the same untrusted-id hazard as the substrate's handler table).
func (d *Domain) NoteBadHandler() { d.badHandlerDrops.Add(1) }

// NoteGptrReject counts one wire-encoded global pointer the runtime layer
// refused to decode (bad rank, foreign segment id, or out-of-segment
// offset) — the decode-side bounds-validation discipline's tally.
func (d *Domain) NoteGptrReject() { d.gptrRejects.Add(1) }

// SetNotifyHook installs the runtime layer's put-with-notify dispatcher:
// when a put request carrying a notify id lands, the data is applied, the
// ack is sent, and fn runs on the receiving rank's goroutine at user-level
// progress with the id and argument bytes the request carried. Must be
// installed before any endpoint is driven. The args slice is only valid
// for the duration of the call.
func (d *Domain) SetNotifyHook(fn func(ep *Endpoint, id uint32, args []byte)) { d.notifyHook = fn }

// NewDomain validates cfg and constructs the job: one segment and one
// endpoint per rank, with the internal RMA/atomic protocol handlers
// installed.
func NewDomain(cfg Config) (*Domain, error) {
	return newDomain(cfg, newBatchConn)
}

// newDomain is NewDomain with the UDP socket adapter injectable: the
// package's tests pass the portable seqConn to run the non-Linux datapath
// end to end on Linux.
func newDomain(cfg Config, newConn func(*net.UDPConn, *Domain) batchConn) (*Domain, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, err
	}
	d := &Domain{cfg: cfg, bus: cfg.Events}
	d.inc = cfg.Epoch
	if d.inc == 0 {
		d.inc = 1 // in-process worlds share one permanent incarnation
	}
	d.segs = make([]*Segment, cfg.Ranks)
	d.eps = make([]*Endpoint, cfg.Ranks)
	for r := 0; r < cfg.Ranks; r++ {
		// In a multiproc world only Self's segment exists in this address
		// space: every other rank's memory lives in another process and is
		// reachable only through the wire protocol. The remaining nil
		// entries are unreachable behind the locality checks (NodeOf makes
		// every non-self rank remote).
		if !cfg.Multiproc || r == cfg.Self {
			d.segs[r] = NewSegment(cfg.SegmentBytes)
		}
		d.eps[r] = &Endpoint{
			dom:  d,
			rank: r,
			node: cfg.NodeOf(r),
			wake: make(chan struct{}, 1),
		}
	}
	d.handlers[hPutReq] = handlePutReq
	d.handlers[hPutAck] = handleCumReply
	d.handlers[hGetReq] = handleGetReq
	d.handlers[hGetRep] = handleAck
	d.handlers[hAmoReq] = handleAmoReq
	d.handlers[hAmoRep] = handleAck
	d.handlers[hHeldFn] = handleHeldFn
	// Seed the cached clock so the first SIM release time is stamped from
	// a fresh value (drains keep it fresh from then on).
	clockRefresh()
	if cfg.Conduit == UDP {
		if err := d.initUDP(newConn); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// handleHeldFn runs a remote-completion closure PollInternal held for
// Poll. A message with this id but no closure (one off the wire that named
// none) is counted and dropped like an unknown handler.
func handleHeldFn(ep *Endpoint, m *Msg) {
	if m.Fn == nil {
		ep.dom.badHandlerDrops.Add(1)
		return
	}
	m.Fn(ep)
}

// Config returns the (normalized) configuration the Domain was built with.
func (d *Domain) Config() Config { return d.cfg }

// Ranks reports the number of ranks in the job.
func (d *Domain) Ranks() int { return d.cfg.Ranks }

// Endpoint returns rank r's endpoint.
func (d *Domain) Endpoint(r int) *Endpoint { return d.eps[r] }

// peer returns rank local's record of rank to, or nil when this process
// holds none: a conduit without sockets, a local rank hosted by another
// process, an index out of range.
func (d *Domain) peer(local, to int) *peer {
	if local < 0 || local >= d.cfg.Ranks || to < 0 || to >= d.cfg.Ranks || d.eps[local].host == nil {
		return nil
	}
	return &d.eps[local].host.peers[to]
}

// Segment returns rank r's shared segment.
func (d *Domain) Segment(r int) *Segment { return d.segs[r] }

// RegisterHandler installs a user-level AM handler. IDs must be in
// [HandlerUserBase, MaxHandlers). Registration must complete before any
// endpoint is driven.
func (d *Domain) RegisterHandler(id uint8, fn HandlerFunc) {
	if id < HandlerUserBase || int(id) >= MaxHandlers {
		panic(fmt.Sprintf("gasnet: handler id %d outside user range [%d,%d)",
			id, HandlerUserBase, MaxHandlers))
	}
	if d.handlers[id] != nil {
		panic(fmt.Sprintf("gasnet: handler id %d already registered", id))
	}
	d.handlers[id] = fn
}

// RegisterReplyHandler is RegisterHandler for a handler whose messages are
// replies: each completes an operation the receiving rank started, so its
// sender expects nothing back but the transport's ack. On the UDP conduit
// a frame that carried only replies is acknowledged lazily — on the
// receiving rank's next frame to the sender, at its next Idle, or at the
// ack-pacing deadline — rather than by a standalone ack at the end of the
// Poll that dispatched it (DESIGN.md §8.2). The substrate's own put, get
// and atomic replies are registered so already. On the other conduits it
// is RegisterHandler.
func (d *Domain) RegisterReplyHandler(id uint8, fn HandlerFunc) {
	d.RegisterHandler(id, fn)
	if d.udp != nil {
		d.udp.replies.Or(1 << id)
	}
}

// AMSends reports the total number of cross-endpoint active messages sent
// so far in this Domain.
func (d *Domain) AMSends() int64 { return d.amSends.Load() }

// RbufErr reports the first failure to enlarge a UDP socket's kernel
// receive buffer at init, or nil when every socket was configured (or the
// conduit has no sockets). A non-nil value means bursty collectives may
// drop datagrams on this host — survivable under the reliability layer,
// but worth surfacing to operators and tests programmatically rather than
// only as a one-shot log line.
func (d *Domain) RbufErr() error {
	if d.udp == nil {
		return nil
	}
	return d.udp.rbufErr
}

// Endpoint is one rank's attachment to the Domain: its inbound AM queue and
// its table of outstanding remote operations. All methods except the
// producer side of message delivery must be called from the owning rank's
// goroutine.
type Endpoint struct {
	dom   *Domain
	rank  int
	node  int
	inbox amQueue
	ops   opTable

	// Ctx is an opaque slot for the runtime layer to attach its per-rank
	// state (the progress engine), so AM handlers can reach it.
	Ctx any

	wirebuf []byte // reused encode buffer for SIM sends

	// host is this rank's socket and peer rows on the UDP conduit (udp.go);
	// nil on every other conduit, and for a rank another process hosts.
	host *host

	// wake is signaled (coalescing) whenever a message is delivered to
	// this endpoint, so an idle waiter can park instead of spinning — a
	// large win when ranks outnumber cores.
	wake      chan struct{}
	parkTimer *time.Timer

	// idleStreak counts the Idle calls since Poll last dispatched a
	// message (owner goroutine only).
	idleStreak int

	// held carries messages deferred by PollInternal until the next
	// user-level Poll.
	held []Msg

	// lvSeen is the liveness epoch this rank last swept against;
	// deathsSeen[peer] is the per-peer death generation the last sweep
	// caught up to (a readmitted peer can die again — each death is a
	// fresh sweep, and only entries registered before it are failed);
	// onPeerDown is the runtime layer's hook, invoked once per peer death
	// on the owner goroutine during Poll. All three are owner-goroutine
	// state.
	lvSeen     uint32
	deathsSeen []uint32
	onPeerDown func(peer int, err error)

	// cum is the value-less completion state (rma.go), nil until this
	// rank's first value-less op or request.
	cum *cumState

	// rest is what remains of the message list the dispatch rounds on
	// this goroutine's stack drained; depth counts those rounds (Poll,
	// PollInternal). A handler may poll — the runtime re-enters progress
	// from callbacks — and the nested round first dispatches what the
	// enclosing rounds left: held messages, the rest of the frame being
	// expanded (host.expandRest), then rest. So one peer's messages are
	// dispatched in arrival order at any depth, which is what lets any
	// round's cumulative reply cover every request it names (rma.go). A
	// nested round drains past the end of the enclosing round's list and
	// decodes frames into a slot of its own, because the message an
	// enclosing handler is running on must stay intact.
	//
	// Fields are added here, at the end, because the layout above is
	// load-bearing: every delivery from another goroutine reads wake
	// (notify), so the cache line holding it must not also hold a field
	// the owner writes in its wait loop. Shifting the fields above by 16
	// bytes put idleStreak on wake's line and cost offnode_ops about 4 %.
	rest  []Msg
	depth int
}

// Rank returns this endpoint's rank index.
func (ep *Endpoint) Rank() int { return ep.rank }

// Node returns the node this endpoint resides on.
func (ep *Endpoint) Node() int { return ep.node }

// Domain returns the owning Domain.
func (ep *Endpoint) Domain() *Domain { return ep.dom }

// Segment returns this rank's own shared segment.
func (ep *Endpoint) Segment() *Segment { return ep.dom.segs[ep.rank] }

// Local reports whether this endpoint has direct load/store access to the
// target rank's segment (i.e. the ranks are co-located). This is the
// dynamic locality query behind the paper's is_local.
func (ep *Endpoint) Local(target int) bool {
	return ep.node == ep.dom.cfg.NodeOf(target)
}

// LocalSegment returns the target rank's segment, which the caller may
// access directly only when Local(target) is true.
func (ep *Endpoint) LocalSegment(target int) *Segment {
	return ep.dom.segs[target]
}

// Send delivers an active message to the target rank's endpoint. Co-located
// targets receive the message immediately (in-memory handoff). Cross-node
// targets (SIM conduit) receive a copy that was round-tripped through the
// wire encoding and released only after the configured latency. On the
// UDP conduit every message, self-sends included, is encoded into its
// destination's staged batch — a closure by handle (fntable.go) — and
// leaves at this rank's next progress call — Poll, PollInternal, Idle —
// or at Flush, whichever comes first (DESIGN.md §7.3); a collective's
// last token or a send before teardown needs Flush.
// A Msg whose buf field is set (pooled payload staging, rma.go) is
// consumed by Send: ownership of the buffer reference transfers to the
// receiver on in-memory delivery, or is released here once the bytes are
// encoded.
func (ep *Endpoint) Send(to int, m Msg) {
	m.From = int32(ep.rank)
	ep.dom.amSends.Add(1)
	if ep.dom.cfg.Conduit == UDP {
		ep.host.stage(to, &m)
		m.release()
		return
	}
	dst := ep.dom.eps[to]
	if ep.node == dst.node {
		dst.inbox.push(m) // buffer reference (if any) travels with m
		dst.notify()
		return
	}
	// Round-trip through the wire format: this both validates that the
	// internal protocol is serializable and gives the payload copy
	// semantics of a real injection path. Closure payloads (remote
	// completions, user RPC) are reattached out of band — the SIM conduit
	// models wire latency, not address-space separation; see DESIGN.md.
	fn := m.Fn
	m.Fn = nil
	ep.wirebuf = encodeMsg(ep.wirebuf[:0], &m)
	m.release() // staged payload is encoded; drop our reference
	wb := ep.dom.arena.get(len(ep.wirebuf))
	copy(wb.b, ep.wirebuf)
	dm, err := decodeMsg(wb.b)
	if err != nil {
		panic(err) // encode/decode are inverses; this is a runtime bug
	}
	dm.buf = wb
	dm.Fn = fn
	// Stamp from a freshly advanced clock: a stale stamp would release the
	// message early and under-simulate the wire latency. The refresh also
	// keeps the shared cache warm for the receiver's drain gating. (The
	// clock reads the fast path avoids are the per-push and per-untimed-
	// drain ones; one read per simulated cross-node send is the simulation
	// itself.)
	dm.readyAt = clockRefresh() + int64(ep.dom.cfg.SimLatency)
	dst.inbox.push(dm)
	dst.notify()
}

// Poll drains and dispatches all deliverable inbound messages (user-level
// progress), returning the number processed. It must be called from the
// owning rank's goroutine; it is the substrate half of the runtime's
// progress engine. Messages held back by a preceding PollInternal are
// dispatched first, preserving their arrival order; a Poll nested in a
// handler then dispatches what the enclosing rounds drained and left
// (Endpoint.rest) before it drains the inbox again. The dispatch round
// ends with one cumulative reply to each peer whose value-less requests
// it applied (rma.go). On the UDP conduit Poll is also where staged sends
// leave: at entry, everything sent since the last progress call; after
// the dispatch round, the handlers' and the round's replies, which carry
// the pending acks; then the urgent acks nothing carried. A lazy ack — one
// owed only for replies — stays pending for this rank's next frame, its
// next Idle, or the pacing deadline (reliable.go).
func (ep *Endpoint) Poll() int {
	if h := ep.host; h != nil {
		h.flush()
		if h.epoch.Load() != ep.lvSeen {
			// A peer of this rank was declared down since the last poll:
			// fail its pending operations here, on the owner goroutine,
			// preserving the op table's no-locking confinement.
			ep.sweepDown(h)
		}
	}
	ep.depth++
	n := 0
	if len(ep.held) > 0 {
		n += ep.dispatchHeld()
	}
	if ep.leftover() {
		n += ep.dispatchRest(false)
	}
	outer := ep.drain()
	n += ep.dispatchRest(false)
	ep.endRound(outer)
	if h := ep.host; h != nil {
		// Ship the replies, then the urgent acks this dispatch round did
		// not answer with reverse traffic: now, not at the ticker's pacing
		// deadline (see reliability.flushAcks).
		h.flush()
		ep.dom.rel.flushAcks(h, ackUrgent)
	}
	if n > 0 {
		ep.idleStreak = 0
	}
	return n
}

// dispatch routes one message to its handler. A message bearing an
// out-of-range or unregistered handler id is counted and dropped, not
// trusted to crash the job: on the UDP conduit it came off a socket, and
// the full uint8 id space is wider than the handler table.
func (ep *Endpoint) dispatch(m *Msg) {
	if int(m.Handler) >= len(ep.dom.handlers) {
		ep.dom.badHandlerDrops.Add(1)
		return
	}
	h := ep.dom.handlers[m.Handler]
	if h == nil {
		ep.dom.badHandlerDrops.Add(1)
		return
	}
	h(ep, m)
}

// sweepDown fails the pending operations of every peer whose death
// generation advanced since the last sweep, with ErrPeerUnreachable, frees
// the closures this rank parked for its buried incarnation, and runs the runtime layer's
// peer-down hook. The generation comparison — not the current Down
// state — is what makes the sweep churn-correct: a peer may die and be
// readmitted between two polls, and the operations in flight against its
// dead incarnation must still fail even though the peer reads Alive
// again, while operations registered after readmission (stamped with the
// newer generation by DownGen) must survive. Owner goroutine only (called
// from Poll).
func (ep *Endpoint) sweepDown(h *host) {
	ep.lvSeen = h.epoch.Load()
	if ep.deathsSeen == nil {
		ep.deathsSeen = make([]uint32, ep.dom.cfg.Ranks)
	}
	for peer := range ep.deathsSeen {
		cur := h.peers[peer].deaths.Load()
		if peer == ep.rank || cur == ep.deathsSeen[peer] {
			continue
		}
		ep.deathsSeen[peer] = cur
		ep.dom.fns.drop(ep.rank, peer, cur)
		n := ep.ops.failPeer(int32(peer), cur, ErrPeerUnreachable) +
			ep.failQueued(peer, cur, ErrPeerUnreachable)
		ep.dom.downPeerFails.Add(int64(n))
		if ep.onPeerDown != nil {
			ep.onPeerDown(peer, ErrPeerUnreachable)
		}
	}
}

// DownGen returns the current death generation of peer as seen by this
// rank: the stamp a new op-table registration should carry so a later
// sweep can tell operations against the current incarnation from ones
// buried with a previous one. Zero without a failure detector.
func (ep *Endpoint) DownGen(peer int) uint32 {
	if ep.host == nil || peer < 0 || peer >= ep.dom.cfg.Ranks {
		return 0
	}
	return ep.host.peers[peer].deaths.Load()
}

// SetPeerDownHook installs the runtime layer's peer-death notification,
// invoked on the owner goroutine during Poll, once per declared-dead peer,
// after the endpoint's own pending operations have been failed. Must be
// installed before the endpoint is driven.
func (ep *Endpoint) SetPeerDownHook(fn func(peer int, err error)) { ep.onPeerDown = fn }

// PeerDown reports whether this rank currently declares peer down (always
// false without the liveness detector). Operations targeting a down peer
// fail at injection with ErrPeerUnreachable rather than waiting out a
// deadline. Down is no longer forever: a restarted peer that rejoins
// under a new incarnation is readmitted, and a merely-partitioned peer
// heals back under the same incarnation once probes get through — after
// either, PeerDown reads false again, so callers gating long-lived loops
// should re-check per operation rather than caching the verdict.
func (ep *Endpoint) PeerDown(peer int) bool {
	return ep.host != nil && ep.host.peers[peer].state.Load() == peerDown
}

// AnyPeerDown cheaply reports whether this rank has EVER declared a peer
// down (one atomic load — the per-rank down epoch is bumped on each
// declaration and never reset), so blocking protocols can test it every
// spin iteration. After a readmission it may read true with no peer
// currently down; callers treat it as a hint and re-check the specific
// peers they depend on (PeerDown), so the stale-true costs a slow-path
// pass, never a wrong answer.
func (ep *Endpoint) AnyPeerDown() bool {
	return ep.host != nil && ep.host.epoch.Load() != 0
}

// DownPeers returns the ranks this endpoint has declared down, in rank
// order (nil when none).
func (ep *Endpoint) DownPeers() []int {
	var down []int
	for peer := 0; peer < ep.dom.cfg.Ranks; peer++ {
		if peer != ep.rank && ep.PeerDown(peer) {
			down = append(down, peer)
		}
	}
	return down
}

// PollInternal performs internal-level progress (the GASNet/UPC++ level
// distinction of §II-B): it services inbound *requests* — remote put, get,
// and atomic operations targeting this rank's segment — so that peers can
// make progress, but delivers no user-observable notification on this
// rank: acknowledgments (which would ready local futures and promises) and
// user-level messages (RPCs, collective tokens) are held for the next
// user-level Poll. Remote-completion callbacks attached to serviced puts
// are likewise held — the data is applied and the ack sent, but the
// callback waits for user-level progress, as remote_cx::as_rpc does in
// UPC++. Nested in a handler, it first services what the enclosing
// rounds drained and left, as Poll does. Its dispatch round ends like
// Poll's, with the cumulative replies. On the UDP conduit the replies it
// produced, and anything staged before it, leave before it returns.
func (ep *Endpoint) PollInternal() int {
	ep.depth++
	n := 0
	if ep.leftover() {
		n += ep.dispatchRest(true)
	}
	outer := ep.drain()
	n += ep.dispatchRest(true)
	ep.endRound(outer)
	ep.Flush()
	return n
}

// drain takes the inbox's deliverable messages as rest. A socket-fed
// endpoint whose inbox is empty first reads what its socket holds,
// without blocking, so a loop that polls and never waits still hears its
// peers. The list lives in
// the inbox's reused scratch buffer, so a nested round drains past the end
// of the enclosing round's list (drainNested) and returns the scratch view
// for endRound to restore; an outermost round returns nil.
func (ep *Endpoint) drain() (outer []Msg) {
	if h := ep.host; h != nil && ep.inbox.empty() {
		h.pollRead()
	}
	if ep.depth > 1 {
		return ep.drainNested()
	}
	ep.rest = ep.inbox.drainNow()
	return nil
}

// drainNested is drain for a round nested in another: the message an
// enclosing handler is running on lives in the enclosing round's list,
// and must not be overwritten.
func (ep *Endpoint) drainNested() (outer []Msg) {
	outer = ep.inbox.scratch
	ep.inbox.scratch = outer[len(outer):]
	ep.rest = ep.inbox.drainNow()
	return outer
}

// dispatchHeld dispatches the messages a PollInternal held, in arrival
// order. A handler that polls dispatches the rest of them first.
func (ep *Endpoint) dispatchHeld() int {
	n := 0
	for len(ep.held) > 0 {
		m := &ep.held[0]
		ep.held = ep.held[1:]
		ep.dispatch(m)
		m.release()
		*m = Msg{}
		n++
	}
	ep.held = nil
	return n
}

// leftover reports whether the dispatch rounds on the stack drained
// messages they have not dispatched yet.
func (ep *Endpoint) leftover() bool {
	return len(ep.rest) > 0 || (ep.host != nil && ep.host.frameLeft > 0)
}

// dispatchRest dispatches, in arrival order, what the dispatch rounds on
// the stack drained and have not dispatched yet: the rest of the frame
// being expanded, then rest. For PollInternal (internal) it applies the
// requests and holds every other message for the next Poll.
func (ep *Endpoint) dispatchRest(internal bool) int {
	n := 0
	if h := ep.host; h != nil && h.frameLeft > 0 {
		n += h.expandRest(internal)
	}
	for len(ep.rest) > 0 {
		m := &ep.rest[0]
		ep.rest = ep.rest[1:]
		switch {
		case ep.isFrame(m):
			n += ep.host.expandFrame(m, internal)
		case !internal:
			ep.dispatch(m)
			m.release()
			n++
		case ep.serviceRequest(m):
			m.release() // payload consumed
			n++
		default:
			// Acks, replies, and user-level messages wait for Poll. Copy:
			// the drain buffer is reused. The copy takes over the buffer
			// reference; the scratch entry must not release it.
			ep.held = append(ep.held, *m)
			m.buf = nil
		}
	}
	return n
}

// serviceRequest applies m for PollInternal if it is a request — a remote
// put, get or atomic targeting this rank's segment — and reports whether
// it was; it leaves m's buffer reference to the caller. A put's
// user-level work (its remote-completion closure, its wire notify) is
// held for Poll; the data is applied and the ack sent now.
func (ep *Endpoint) serviceRequest(m *Msg) bool {
	switch m.Handler {
	case hPutReq:
		if m.Fn != nil || m.A2 != 0 {
			if fn, ok := ep.applyPutHeld(m); ok && fn != nil {
				ep.held = append(ep.held, Msg{Handler: hHeldFn, Fn: fn})
			}
			return true
		}
	case hGetReq, hAmoReq:
	default:
		return false
	}
	ep.dispatch(m)
	return true
}

// InboxEmpty reports whether no messages (deliverable or in flight) are
// queued for this endpoint.
func (ep *Endpoint) InboxEmpty() bool { return ep.inbox.empty() }

// notify signals (coalescing) that a message was delivered.
func (ep *Endpoint) notify() {
	select {
	case ep.wake <- struct{}{}:
	default:
	}
}

// parkTimeout bounds how long Park blocks, so a waiter whose condition is
// satisfied by something other than an inbound message (time passing on
// the SIM conduit, a logic error in user code) re-polls periodically.
const parkTimeout = time.Millisecond

// idleSpin is how many consecutive idle steps an in-memory endpoint's
// waiter spends: it yields on the first idleSpin-1 and parks from the
// idleSpin-th on. A ping-pong between goroutine ranks stays in the cheap
// yield regime; a waiter with nothing coming parks.
const idleSpin = 128

// Idle relinquishes the CPU after an idle progress step; the runtime
// installs it as the progress engine's parker. The policy follows from
// what delivers this endpoint's messages. A socket-fed endpoint (one with
// a host, the UDP conduit) waits at once, in its own socket (Park): its
// messages arrive there, no reply can come sooner than a loopback round
// trip, and a yield spin would only take the CPU the peer needs. An
// in-memory endpoint's messages are pushed by other ranks' goroutines,
// which a yield lets run: it spins idleSpin-1 yields, then parks. A Poll
// that dispatches anything resets the streak. A socket-fed endpoint ships
// its staged sends before it waits — whatever ran since the last Poll
// (a continuation, a callback) may have sent the very message the wait
// depends on — and then every ack still pending, the lazy ones included:
// a rank with nothing to do has no next frame for them to ride on.
func (ep *Endpoint) Idle() {
	ep.idleStreak++
	if h := ep.host; h != nil {
		h.flush()
		ep.dom.rel.flushAcks(h, ackLazy)
	} else if ep.idleStreak < idleSpin {
		runtime.Gosched()
		return
	}
	ep.Park()
}

// Park blocks the calling (owner) goroutine until a new message may be
// available for this endpoint, or parkTimeout elapses. Idle calls it once
// its wait policy decides to stop yielding, after shipping the staged
// sends; a wait loop that wants to block regardless may call it directly
// after an idle Poll, which shipped them. Park itself ships nothing, so
// a caller that sent since its last Poll calls Flush first. A socket-fed
// endpoint's owner is the reader of its own socket while it parks: it
// blocks in the socket's read, steps what arrives through the
// reliability layer into its inbox, and returns — no other goroutine
// reads the datagram and wakes it (host.wait). A wake from another
// goroutine (a peer's state change, a frame the ticker read) cuts the wait
// short. Spurious returns are expected; the caller re-checks its
// condition.
func (ep *Endpoint) Park() {
	if !ep.inbox.empty() {
		// Messages exist but were not deliverable (SIM wire latency):
		// yield briefly rather than blocking on the wake channel.
		runtime.Gosched()
		return
	}
	// A parked rank is as good a clock keeper as any: refreshing here
	// bounds the cached clock's staleness for SIM release stamping even
	// when every rank is idle.
	clockRefresh()
	if h := ep.host; h != nil {
		h.wait(parkTimeout)
		return
	}
	ep.parkOnWake()
}

// parkOnWake blocks until a notify or parkTimeout: Park's wait on the
// in-memory conduits.
func (ep *Endpoint) parkOnWake() {
	if ep.parkTimer == nil {
		ep.parkTimer = time.NewTimer(parkTimeout)
	} else {
		ep.parkTimer.Reset(parkTimeout)
	}
	select {
	case <-ep.wake:
		if !ep.parkTimer.Stop() {
			<-ep.parkTimer.C
		}
	case <-ep.parkTimer.C:
	}
}

// PendingOps reports the number of outstanding remote operations initiated
// by this endpoint that have not yet completed: value ops in the op table
// and value-less ops in the completion queues.
func (ep *Endpoint) PendingOps() int {
	if c := ep.cum; c != nil {
		return ep.ops.live() + c.n
	}
	return ep.ops.live()
}
