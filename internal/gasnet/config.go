// Package gasnet implements the communication substrate underneath the
// gupcxx runtime, modeled on GASNet-EX: per-rank shared-memory segments, a
// rank-to-node topology, active-message (AM) endpoints with polling-based
// progress, an AM-based remote RMA/atomic protocol, and pluggable conduits.
//
// Four conduits are provided:
//
//   - SMP: every rank lives on one node; all segments are directly
//     addressable and the locality of a global address is a compile-time
//     fact (the "constexpr is_local" optimization in the paper).
//   - PSHM: models the paper's UDP-conduit-with-process-shared-memory runs:
//     all ranks are co-located and have direct load/store access to each
//     other's segments, but locality is a dynamic property that must be
//     queried per address.
//   - SIM: a message-passing conduit with injected wire latency. Ranks are
//     partitioned into nodes of RanksPerNode ranks each; accesses between
//     nodes travel as serialized active messages and never complete
//     synchronously, exercising the deferred-notification path exactly as a
//     network NIC would.
//   - UDP: like PSHM, but wire-encodable active messages travel over real
//     loopback UDP sockets (see udp.go) — the substrate configuration of
//     the paper's IBM and Marvell runs.
package gasnet

import (
	"fmt"
	"net"
	"net/netip"
	"time"

	"gupcxx/internal/obs"
)

// Conduit selects the communication substrate for a Domain.
type Conduit int

const (
	// SMP is the single-node shared-memory conduit with static locality.
	SMP Conduit = iota
	// PSHM is the co-located-processes conduit with dynamic locality.
	PSHM
	// SIM is the simulated-network conduit with cross-node latency.
	SIM
	// UDP is the co-located-processes conduit whose active messages
	// travel over real loopback UDP datagrams (the paper's UDP-conduit
	// runs); RMA data still moves through process-shared memory.
	UDP
)

// String returns the conduit's conventional lower-case name.
func (c Conduit) String() string {
	switch c {
	case SMP:
		return "smp"
	case PSHM:
		return "pshm"
	case SIM:
		return "sim"
	case UDP:
		return "udp"
	default:
		return fmt.Sprintf("conduit(%d)", int(c))
	}
}

// ParseConduit converts a conduit name ("smp", "pshm", "sim", "udp") to a
// Conduit.
func ParseConduit(s string) (Conduit, error) {
	switch s {
	case "smp":
		return SMP, nil
	case "pshm":
		return PSHM, nil
	case "sim":
		return SIM, nil
	case "udp":
		return UDP, nil
	default:
		return 0, fmt.Errorf("gasnet: unknown conduit %q", s)
	}
}

// DefaultSegmentBytes is the per-rank shared segment size used when
// Config.SegmentBytes is zero.
const DefaultSegmentBytes = 16 << 20

// BackpressurePolicy selects how admission reacts to a full send window
// (see Config.Backpressure).
type BackpressurePolicy int

const (
	// BackpressureBlock (the default) waits — bounded by
	// Config.BackpressureWait and the operation's deadline — for a window
	// credit before failing the operation with ErrBackpressure.
	BackpressureBlock BackpressurePolicy = iota
	// BackpressureFailFast fails the operation with ErrBackpressure
	// immediately when the window is full.
	BackpressureFailFast
)

// Config describes a gasnet job: the number of ranks, how they are grouped
// into nodes, the conduit connecting them, and segment sizing.
type Config struct {
	// Ranks is the total number of ranks in the job. Must be >= 1.
	Ranks int

	// Conduit selects the substrate. The zero value is SMP.
	Conduit Conduit

	// RanksPerNode applies to the SIM conduit only and gives the number of
	// co-located ranks per simulated node. Zero means 1 (every rank on its
	// own node, all traffic remote). SMP and PSHM place all ranks on node 0.
	RanksPerNode int

	// SegmentBytes is the size of each rank's shared segment. Zero selects
	// DefaultSegmentBytes. Rounded up to a multiple of 8.
	SegmentBytes int

	// SimLatency is the one-way wire latency injected by the SIM conduit
	// for cross-node messages. Zero selects 1µs. Ignored by other conduits.
	SimLatency time.Duration

	// Fault arms the UDP conduit's deterministic network model from
	// construction: datagrams are dropped, duplicated, and reordered from
	// a seeded PRNG (see FaultConfig), so the reliability layer is
	// testable in-process without real packet loss. The model's shim is
	// interposed on every UDP send path regardless (idle it costs one
	// atomic load per write), so faults, partitions, and latency can also
	// be armed mid-run (SetFault, SetPartition, SetLatency, the scenario
	// DSL) on a domain built with Fault nil. When nil, the
	// GUPCXX_UDP_FAULT environment variable is consulted (see fault.go),
	// letting whole suites run under loss; an explicit zero FaultConfig
	// shields a domain from that preset. Ignored by other conduits.
	Fault *FaultConfig

	// RelWindow bounds the reliability layer's per-pair in-flight
	// (unacked) datagrams and receive-side reorder buffer. Zero selects
	// the default (256). It is the *maximum* of the adaptive congestion
	// window, which is halved per loss episode and regrown by slow start
	// between RelWindowMin and this value.
	// UDP only.
	RelWindow int

	// RelWindowMin is the floor of the adaptive congestion window:
	// loss signals never halve the window below this. Zero selects the
	// default (8, clamped to RelWindow). UDP only.
	RelWindowMin int

	// RelReorderBytes bounds, per rank pair, the bytes of out-of-order
	// frames parked in the receive-side reorder buffer. Parking past the
	// budget sheds the parked frame furthest from delivery (the sender
	// retransmits it), so one peer's burst cannot pin unbounded memory.
	// Zero selects the default (1 MiB). UDP only.
	RelReorderBytes int

	// Backpressure selects the admission policy when an operation targets
	// a peer whose send window is full: BackpressureBlock (the zero value)
	// waits up to BackpressureWait for a credit before failing with
	// ErrBackpressure; BackpressureFailFast fails immediately, surfacing
	// overload as a completion value the caller can react to. UDP only.
	Backpressure BackpressurePolicy

	// BackpressureWait bounds how long blocking admission
	// (BackpressureBlock) may wait for a window credit. Zero selects the
	// default (2s). The wait is further capped by the operation's own
	// deadline, when it has one. UDP only.
	BackpressureWait time.Duration

	// RelMaxAttempts is the retransmission budget: this many fruitless
	// retransmits of one datagram exhaust the attempt budget and the
	// destination is declared down (ErrPeerUnreachable for its pending
	// operations) instead of retrying forever. Zero selects the default
	// (64). UDP only.
	RelMaxAttempts int

	// HeartbeatEvery is the liveness heartbeat period: the reliability
	// ticker ships one small unsequenced heartbeat per rank pair each
	// period, so silence is measurable even on idle ranks. Zero selects
	// 5ms. UDP only.
	HeartbeatEvery time.Duration

	// SuspectAfter is how long a peer may stay silent before it is marked
	// Suspect (recoverable — any received traffic restores it). Zero
	// selects 10×HeartbeatEvery.
	SuspectAfter time.Duration

	// DownAfter is how long a peer may stay silent before it is declared
	// Down (sticky): its pending operations fail with ErrPeerUnreachable
	// and new operations targeting it fail at injection. Zero selects
	// 40×HeartbeatEvery.
	DownAfter time.Duration

	// Multiproc selects the process-per-rank deployment shape on the UDP
	// conduit: this OS process hosts exactly one rank (Self), every other
	// rank is a separate process reached only over the wire, and no
	// segment but Self's exists in this address space. Requires Conduit ==
	// UDP, a bound SelfConn, and a full Peers table (one UDP address per
	// rank, Self's included). In this mode closure-carrying messages to
	// remote ranks cannot be delivered — the runtime layer must gate them
	// before injection — and locality collapses to rank == Self.
	Multiproc bool

	// Self is this process's rank in a Multiproc world. Ignored otherwise.
	Self int

	// Peers is the rank-indexed UDP address table of a Multiproc world,
	// established out-of-band by the bootstrap exchange (internal/boot).
	// len(Peers) must equal Ranks. Ignored unless Multiproc.
	Peers []netip.AddrPort

	// SelfConn is this process's bound UDP socket in a Multiproc world.
	// It must already be bound (the bootstrap exchange binds it before
	// publishing its address so peers' first datagrams are buffered by
	// the kernel rather than refused). The Domain takes ownership and
	// closes it. Ignored unless Multiproc.
	SelfConn *net.UDPConn

	// Epoch is the world incarnation stamp assigned by the bootstrap
	// exchange in a Multiproc world (zero means "unstamped"; the runtime
	// treats that as epoch 1). It is this process's incarnation: every
	// frame it sends is stamped with it, peers reject frames from any
	// other incarnation of this rank, and a restarted rank re-registers
	// under a bumped epoch. Ignored unless Multiproc.
	Epoch uint32

	// Rejoin marks this process as a restarted rank: it re-registered
	// with the rendezvous server and received a bumped epoch, so its
	// peers' record of it is stale. The liveness machine then boots with
	// every peer incarnation unknown (adopted from first contact) and
	// announces this rank's new incarnation with join frames each
	// heartbeat round until the surviving peers readmit it. Ignored
	// unless Multiproc.
	Rejoin bool

	// Events, when non-nil, receives substrate health events: liveness
	// transitions (suspect/down/recovered), backpressure onset and relief,
	// congestion-window shrink and recovery-to-ceiling, and retransmit
	// exhaustion. The bus is non-blocking by contract — a publish with no
	// subscriber attached costs one atomic load — so it is safe to leave
	// wired permanently. The field must be set before NewDomain: the
	// reliability ticker starts during construction and emits from its own
	// goroutine. Events fire on state *transitions* only, never per frame.
	// Only the UDP conduit currently emits.
	Events *obs.Bus
}

// normalized returns a copy of c with defaults filled in, or an error if the
// configuration is invalid.
func (c Config) normalized() (Config, error) {
	if c.Ranks < 1 {
		return c, fmt.Errorf("gasnet: Ranks must be >= 1, got %d", c.Ranks)
	}
	if c.Multiproc {
		if c.Conduit != UDP {
			return c, fmt.Errorf("gasnet: Multiproc requires the UDP conduit, got %v", c.Conduit)
		}
		if c.Self < 0 || c.Self >= c.Ranks {
			return c, fmt.Errorf("gasnet: Multiproc Self %d out of range [0,%d)", c.Self, c.Ranks)
		}
		if len(c.Peers) != c.Ranks {
			return c, fmt.Errorf("gasnet: Multiproc needs %d peer addresses, got %d", c.Ranks, len(c.Peers))
		}
		if c.SelfConn == nil {
			return c, fmt.Errorf("gasnet: Multiproc requires a bound SelfConn")
		}
	} else {
		c.Self = 0
		c.Peers = nil
		c.SelfConn = nil
		c.Epoch = 0
		c.Rejoin = false
	}
	switch c.Conduit {
	case SMP, PSHM, UDP:
		c.RanksPerNode = c.Ranks
		if c.Conduit == UDP {
			if c.Ranks > 1<<16 {
				return c, fmt.Errorf("gasnet: the UDP conduit's frames carry the sender rank as a u16: Ranks must be <= %d, got %d", 1<<16, c.Ranks)
			}
			if c.Fault == nil {
				f, err := faultFromEnv()
				if err != nil {
					return c, err
				}
				c.Fault = f
			}
			if c.Fault != nil {
				f := *c.Fault // detach from the caller's struct
				if err := f.validate(); err != nil {
					return c, err
				}
				c.Fault = &f
			}
			if c.RelWindow < 0 || c.RelMaxAttempts < 0 {
				return c, fmt.Errorf("gasnet: RelWindow and RelMaxAttempts must be >= 0")
			}
			if c.RelWindow == 0 {
				c.RelWindow = relWindow
			}
			if c.RelMaxAttempts == 0 {
				c.RelMaxAttempts = relMaxAttempts
			}
			if c.RelWindowMin < 0 || c.RelReorderBytes < 0 || c.BackpressureWait < 0 {
				return c, fmt.Errorf("gasnet: RelWindowMin, RelReorderBytes, and BackpressureWait must be >= 0")
			}
			if c.RelWindowMin > c.RelWindow {
				return c, fmt.Errorf("gasnet: RelWindowMin (%d) must be <= RelWindow (%d)",
					c.RelWindowMin, c.RelWindow)
			}
			if c.RelWindowMin == 0 {
				c.RelWindowMin = relWindowMin
				if c.RelWindowMin > c.RelWindow {
					c.RelWindowMin = c.RelWindow
				}
			}
			if c.RelReorderBytes == 0 {
				c.RelReorderBytes = relReorderBytes
			}
			switch c.Backpressure {
			case BackpressureBlock, BackpressureFailFast:
			default:
				return c, fmt.Errorf("gasnet: unknown Backpressure policy %d", c.Backpressure)
			}
			if c.BackpressureWait == 0 {
				c.BackpressureWait = relBPWait
			}
			if c.HeartbeatEvery <= 0 {
				c.HeartbeatEvery = 5 * time.Millisecond
			}
			if c.SuspectAfter <= 0 {
				c.SuspectAfter = 10 * c.HeartbeatEvery
			}
			if c.DownAfter <= 0 {
				c.DownAfter = 40 * c.HeartbeatEvery
			}
			if c.DownAfter < c.SuspectAfter {
				return c, fmt.Errorf("gasnet: DownAfter (%v) must be >= SuspectAfter (%v)",
					c.DownAfter, c.SuspectAfter)
			}
		}
	case SIM:
		if c.RanksPerNode == 0 {
			c.RanksPerNode = 1
		}
		if c.RanksPerNode < 1 {
			return c, fmt.Errorf("gasnet: RanksPerNode must be >= 1, got %d", c.RanksPerNode)
		}
	default:
		return c, fmt.Errorf("gasnet: unknown conduit %v", c.Conduit)
	}
	if c.SegmentBytes == 0 {
		c.SegmentBytes = DefaultSegmentBytes
	}
	if c.SegmentBytes < 8 {
		return c, fmt.Errorf("gasnet: SegmentBytes must be >= 8, got %d", c.SegmentBytes)
	}
	c.SegmentBytes = (c.SegmentBytes + 7) &^ 7
	if c.Conduit == SIM && c.SimLatency == 0 {
		c.SimLatency = time.Microsecond
	}
	if c.Conduit != UDP {
		c.Fault = nil
	}
	return c, nil
}

// NodeOf reports which node the given rank resides on under this config.
// In a Multiproc world every rank is its own node: nothing is co-located,
// so every non-self access travels the conduit.
func (c Config) NodeOf(rank int) int {
	if c.Multiproc {
		return rank
	}
	if c.RanksPerNode <= 0 || c.Conduit != SIM {
		return 0
	}
	return rank / c.RanksPerNode
}

// SameNode reports whether two ranks are co-located (and therefore have
// direct load/store access to each other's segments).
func (c Config) SameNode(a, b int) bool {
	return c.NodeOf(a) == c.NodeOf(b)
}

// StaticLocal reports whether locality is a compile-time fact for this
// configuration (true only for the SMP conduit, where the is_local check is
// constexpr in the paper's terms).
func (c Config) StaticLocal() bool { return c.Conduit == SMP }
