package gasnet

import (
	"encoding/binary"
	"errors"
	"net/netip"
	"sync"
	"sync/atomic"

	"gupcxx/internal/obs"
)

// ErrPeerUnreachable is the failure delivered to every operation whose
// target rank has been declared down by the liveness machinery: the
// retransmission budget was exhausted, or the peer fell silent past
// Config.DownAfter. Test with errors.Is.
var ErrPeerUnreachable = errors.New("gasnet: peer unreachable")

// Per-peer liveness states. Alive is the zero value; Suspect is a peer
// that has fallen silent past Config.SuspectAfter (recoverable — hearing
// from it restores Alive); Down is reached through silence past
// Config.DownAfter or an exhausted retransmission budget. Down is sticky
// within one incarnation of the peer — ORDINARY late datagrams from a
// declared-dead process never resurrect it — but there are two ways out:
// a restarted peer re-registers under a bumped epoch and is readmitted
// (Down→Alive with fully reset reliability state) when its join frame
// arrives (see handleJoin), and a silence-declared peer that was merely
// partitioned heals (Down→Alive under the SAME incarnation, parked
// reliability state re-armed) when a probe authenticates it (see heal).
// While a peer is Down every operation targeting it fails with
// ErrPeerUnreachable instead of hanging.
const (
	peerAlive int32 = iota
	peerSuspect
	peerDown
	// peerDying is markDown's claim: the winner of the transition holds
	// it for exactly one deaths bump before publishing peerDown. Every
	// reader treats it as not-yet-down; every other transition's CAS
	// fails against it.
	peerDying
)

// Down causes. A Down reached through SILENCE (heartbeat timeout or
// retransmission exhaustion — causeNet) is indistinguishable from a
// network partition, so it is recoverable: the detector keeps sending
// paced probe frames at the dead pair, and authentic same-incarnation
// traffic (a probe or its ack) heals it back to Alive without the
// incarnation machinery. A Down reached through a goodbye frame — or
// installed by readmit to bury a superseded incarnation — is the process
// actually leaving (causeBye) and stays terminal until a join frame from
// a newer incarnation readmits it.
const (
	causeNone int32 = iota
	causeNet
	causeBye
)

// Probe frame: [frameProbe u8] [sender rank u16 LE] [sender incarnation
// u32 LE] [kind u8]. Probes are unsequenced and deliberately bypass
// checkInc — their whole point is authenticating a same-incarnation
// survivor that the incarnation gate would drop as stale — so they carry
// their own gate in handleProbe.
const (
	probeFrameLen  = 8
	probeKindProbe = 0 // "are you there?" — answered with an ack
	probeKindAck   = 1 // "I am" — heals but is never answered
)

// probeGapMax caps the probe backoff at 16 heartbeat rounds per dead
// pair, so a long partition costs a trickle of tiny frames, not a storm.
const probeGapMax = 16

// liveness is the per-domain peer-failure detector, present only on the
// UDP conduit. Detection is pairwise and one-directional: rank
// local tracks what it has heard from rank peer, so an asymmetric fault
// (one rank's sends all dropped) is observed by everyone else while the
// faulty rank still sees its peers as alive.
//
// It is driven entirely by the reliability ticker (reliable.go, 1ms): the
// ticker broadcasts small unsequenced heartbeat frames on behalf of every
// rank each HeartbeatEvery, and sweeps the heardRound grid against the
// suspect/down thresholds. Any received traffic counts as hearing from the
// peer — heartbeats only carry the idle case.
//
// Silence is measured in heartbeat ROUNDS (broadcast opportunities the
// detector itself executed), not wall-clock time. The distinction matters
// under scheduler starvation: on a loaded or single-CPU machine a
// hot-spinning rank can delay the ticker goroutine arbitrarily, and a
// wall-clock detector would then count its own inability to send
// heartbeats as peer silence and declare healthy peers down. Counting
// rounds makes the two clocks cancel — if the ticker cannot run, no
// heartbeats go out, but no silence accrues either; detection latency
// degrades gracefully (rounds × actual tick spacing) instead of going
// false-positive.
//
// All state is atomics: writers are the ticker goroutine (staleness
// transitions, exhaustion-driven markDown via the same goroutine) and the
// per-rank socket reader goroutines (heard); readers are the rank
// goroutines (eager-fail checks, epoch polls).
type liveness struct {
	d     *Domain
	ranks int

	// self restricts the detector to one observing rank (a multiproc
	// world, where only Self's sockets and op tables live in this
	// process); -1 observes on behalf of every rank (in-process worlds).
	self int

	hbEvery       int64 // heartbeat period, ns (gates broadcast rounds)
	suspectRounds int64 // silent rounds before Suspect
	downRounds    int64 // silent rounds before Down

	// round is the number of completed heartbeat broadcast rounds; it is
	// the detector's logical clock. heardRound[local*ranks+peer] is the
	// round during which local last received anything from peer; state is
	// the corresponding peer state.
	round      atomic.Int64
	heardRound []atomic.Int64
	state      []atomic.Int32

	// epoch[local] increments whenever some peer of local goes down; rank
	// goroutines compare it against their last-seen value in Poll and
	// sweep their op tables on change (domain.go).
	epoch []atomic.Uint32

	// peerInc[local*ranks+peer] is the incarnation local currently accepts
	// from peer: the epoch the peer's process registered under. 0 means
	// "never heard" — the first frame from the peer adopts its incarnation
	// (rejoiners boot with an all-zero row, since any subset of the world
	// may have restarted while they were gone). A frame stamped with any
	// other incarnation is rejected by checkInc before ANY processing: no
	// heardRound refresh, no ack completion, no delivery. The recorded
	// incarnation only moves forward through readmit (join frames), never
	// through ordinary traffic — a one-sided adopt would desync the
	// sequenced streams (a reset sender's frames 1..n would be dup-dropped
	// yet re-acked by a receiver whose cumSeq survived).
	peerInc []atomic.Uint32

	// deaths[local*ranks+peer] counts how many times local has declared
	// peer down. Op-table entries are stamped with the count at
	// registration (Endpoint.DownGen); the Poll-time sweep fails exactly
	// the entries whose stamp predates the current count, so operations
	// registered against a readmitted peer survive the sweep that buries
	// its previous incarnation. Invariant: the count rises BEFORE the
	// verdict is published — down(local, peer) == true implies deathsOf
	// already includes that death — so an op that saw the peer Down (or
	// was refused because of it) never stamps the buried generation.
	deaths []atomic.Uint32

	// staleEv[local*ranks+peer] edge-limits EvStaleIncarnation: armed on
	// the first stale drop of an episode, cleared on readmission.
	// Stats.StaleIncarnationDrops counts every drop.
	staleEv []atomic.Bool

	// downCause[local*ranks+peer] records WHY the pair is Down (causeNet
	// is healable, causeBye is terminal). Written by the winner of the
	// markDown state transition, cleared by heal/readmit.
	downCause []atomic.Int32

	// Probe pacing per dead pair: probeNext is the round at which the next
	// probe ships; probeGap is the current gap in rounds, doubling to
	// probeGapMax. Both are (re)armed by markDown on a healable death.
	probeGap  []atomic.Int32
	probeNext []atomic.Int64

	// mmu serializes readmit: join frames can arrive on the socket reader
	// while the ticker is sweeping the same pair, and readmission is a
	// multi-step transition (down-mark, pair reset, incarnation adopt)
	// that must not interleave with itself.
	mmu sync.Mutex

	// rejoin marks this domain as a restarted rank (Config.Rejoin): the
	// ticker announces the new incarnation with join frames each heartbeat
	// round until every live peer has acked new-incarnation traffic.
	// Ticker-goroutine-local after construction.
	rejoin bool

	// joinFrame is the prebuilt announcement ([frameJoin][rank u16]
	// [incarnation u32][addr len u8][addr]); built once at construction
	// for the rejoin case.
	joinFrame []byte

	lastHB int64 // ticker-local: cached-clock time of the last heartbeat round
}

func newLiveness(d *Domain, now int64) *liveness {
	hb := int64(d.cfg.HeartbeatEvery)
	lv := &liveness{
		d:             d,
		ranks:         d.cfg.Ranks,
		self:          -1,
		hbEvery:       hb,
		suspectRounds: roundsFor(int64(d.cfg.SuspectAfter), hb),
		downRounds:    roundsFor(int64(d.cfg.DownAfter), hb),
		heardRound:    make([]atomic.Int64, d.cfg.Ranks*d.cfg.Ranks),
		state:         make([]atomic.Int32, d.cfg.Ranks*d.cfg.Ranks),
		epoch:         make([]atomic.Uint32, d.cfg.Ranks),
		peerInc:       make([]atomic.Uint32, d.cfg.Ranks*d.cfg.Ranks),
		deaths:        make([]atomic.Uint32, d.cfg.Ranks*d.cfg.Ranks),
		staleEv:       make([]atomic.Bool, d.cfg.Ranks*d.cfg.Ranks),
		downCause:     make([]atomic.Int32, d.cfg.Ranks*d.cfg.Ranks),
		probeGap:      make([]atomic.Int32, d.cfg.Ranks*d.cfg.Ranks),
		probeNext:     make([]atomic.Int64, d.cfg.Ranks*d.cfg.Ranks),
	}
	if lv.downRounds <= lv.suspectRounds {
		lv.downRounds = lv.suspectRounds + 1
	}
	if d.cfg.Multiproc {
		lv.self = d.cfg.Self
		lv.rejoin = d.cfg.Rejoin
	}
	if lv.rejoin {
		// A restarted rank cannot assume anything about who else restarted
		// while it was gone: every peer incarnation starts unknown (0) and
		// is adopted from the first frame heard. Its own identity is
		// announced with join frames until acknowledged.
		addr := []byte(d.cfg.Peers[d.cfg.Self].String())
		lv.joinFrame = make([]byte, joinFrameMin+len(addr))
		lv.joinFrame[0] = frameJoin
		binary.LittleEndian.PutUint16(lv.joinFrame[1:3], uint16(d.cfg.Self))
		binary.LittleEndian.PutUint32(lv.joinFrame[3:7], d.inc)
		lv.joinFrame[7] = byte(len(addr))
		copy(lv.joinFrame[joinFrameMin:], addr)
	} else {
		// Everyone registered under the same epoch at the initial barrier:
		// the whole world shares one incarnation until somebody restarts.
		for i := range lv.peerInc {
			lv.peerInc[i].Store(d.inc)
		}
	}
	lv.lastHB = now
	return lv
}

// roundsFor converts a silence duration into heartbeat rounds, rounding
// up; a peer must miss at least two consecutive rounds before any state
// transition so one delayed loopback delivery cannot trip the detector.
func roundsFor(silence, hbEvery int64) int64 {
	r := (silence + hbEvery - 1) / hbEvery
	if r < 2 {
		r = 2
	}
	return r
}

func (lv *liveness) idx(local, peer int) int { return local*lv.ranks + peer }

// heard records that local received traffic from peer, stamping the
// detector's current round. A Suspect peer recovers to Alive; Down is
// sticky — a late datagram from a declared-dead peer must not resurrect
// it after its operations were failed.
func (lv *liveness) heard(local, peer int) {
	if peer < 0 || peer >= lv.ranks || peer == local {
		return
	}
	i := lv.idx(local, peer)
	lv.heardRound[i].Store(lv.round.Load())
	if lv.state[i].CompareAndSwap(peerSuspect, peerAlive) {
		lv.d.emit(obs.EvPeerRecovered, local, peer, 0, 0)
	}
}

// stateOf returns local's current view of peer.
func (lv *liveness) stateOf(local, peer int) int32 {
	return lv.state[lv.idx(local, peer)].Load()
}

// down reports whether local has declared peer down.
func (lv *liveness) down(local, peer int) bool {
	return lv.stateOf(local, peer) == peerDown
}

// epochOf returns local's down-event counter.
func (lv *liveness) epochOf(local int) uint32 { return lv.epoch[local].Load() }

// incOf returns the incarnation local currently accepts from peer (0:
// never heard). A rank's own incarnation is the domain's.
func (lv *liveness) incOf(local, peer int) uint32 {
	if peer == local {
		return lv.d.inc
	}
	return lv.peerInc[lv.idx(local, peer)].Load()
}

// deathsOf returns how many times local has declared peer down — the
// generation stamp for op-table entries (see the deaths field).
func (lv *liveness) deathsOf(local, peer int) uint32 {
	return lv.deaths[lv.idx(local, peer)].Load()
}

// checkInc is the incarnation gate every received frame (sequenced,
// heartbeat, bye) passes before ANY processing. It accepts a frame whose
// stamp matches the recorded incarnation, adopts the stamp when none is
// recorded yet (first contact — common for rejoiners, whose whole row
// starts unknown), and rejects everything else: a mismatched stamp is
// either the dead incarnation's last datagrams draining out of the
// network or a restarted peer that has not yet been readmitted through a
// join frame — in both cases processing it against the current pair
// state would corrupt the sequenced streams. Rejected frames are counted
// (Stats.StaleIncarnationDrops) and edge-reported (EvStaleIncarnation).
// Adopting never resets pair state and never resurrects a Down peer:
// readmission is handleJoin's job, where both sides reset coherently.
func (lv *liveness) checkInc(local, peer int, inc uint32) bool {
	if peer < 0 || peer >= lv.ranks {
		return false
	}
	if peer == local {
		// Self-sends loop through the socket; our own frames are current
		// exactly when they carry our own incarnation.
		return inc == lv.d.inc
	}
	if inc == 0 {
		lv.d.decodeErrors.Add(1) // 0 is never a valid incarnation
		return false
	}
	i := lv.idx(local, peer)
	for {
		rec := lv.peerInc[i].Load()
		if rec == inc {
			if lv.state[i].Load() == peerDown {
				// The recorded incarnation was declared dead: its late
				// datagrams drain out as counted stale drops — they must
				// not refresh the silence clock or look like recovery.
				// Only a join frame from a NEWER incarnation returns.
				lv.noteStale(local, peer, inc, rec)
				return false
			}
			return true
		}
		if rec == 0 {
			if lv.peerInc[i].CompareAndSwap(0, inc) {
				return true
			}
			continue // raced with another adopter; re-read
		}
		lv.noteStale(local, peer, inc, rec)
		return false
	}
}

// noteStale counts one incarnation-mismatch drop and emits
// EvStaleIncarnation on the first drop of an episode (the flag clears on
// readmission). A holds the stamp on the frame, B the recorded one.
func (lv *liveness) noteStale(local, peer int, inc, rec uint32) {
	lv.d.staleIncarnationDrops.Add(1)
	if lv.staleEv[lv.idx(local, peer)].CompareAndSwap(false, true) {
		lv.d.emit(obs.EvStaleIncarnation, local, peer, int64(inc), int64(rec))
	}
}

// markSuspect transitions local's view of peer from Alive to Suspect —
// the overload signal from sustained receive-side shedding (reliable.go
// sweep), sharing the state machine with silence-based suspicion. A
// Suspect peer recovers to Alive through heard; Down peers and already-
// Suspect peers are left alone. Callable from any goroutine.
func (lv *liveness) markSuspect(local, peer int) {
	if peer < 0 || peer >= lv.ranks || peer == local {
		return
	}
	if lv.state[lv.idx(local, peer)].CompareAndSwap(peerAlive, peerSuspect) {
		lv.d.peersSuspected.Add(1)
		lv.d.emit(obs.EvPeerSuspect, local, peer, 0, 0)
	}
}

// markDown transitions local's view of peer to Down (idempotent within
// one incarnation — readmission resets the state and a later death counts
// again) and bumps local's epoch so the rank goroutine sweeps its op
// table at the next Poll. The deaths stamp rises before both the Down
// verdict (see the deaths field) and the epoch, so a caller that reads
// PeerDown, and a sweep triggered by the epoch change, always observe
// the new generation. Callable from any goroutine.
//
// The cause decides what happens to the reliability pair. A terminal
// death (causeBye) releases it — in-flight buffers
// return to the pool, the stream is gone. A healable death (causeNet)
// PARKS it instead: in-flight frames keep their sequence numbers and
// wait out the partition, because releasing them would leave permanent
// gaps the receiver's cumulative stream could never close after a heal.
// Only the winner of the state transition writes the cause, so a racing
// probe can momentarily read causeNone and skip a heal — the next probe
// repairs that.
func (lv *liveness) markDown(local, peer int, cause int32) {
	i := lv.idx(local, peer)
	for {
		s := lv.state[i].Load()
		if s == peerDown || s == peerDying {
			return
		}
		if lv.state[i].CompareAndSwap(s, peerDying) {
			break
		}
	}
	lv.deaths[i].Add(1)
	// CAS, not Store: a readmit that ran inside the claim already made
	// the pair Alive under a new incarnation and must not be overwritten.
	lv.state[i].CompareAndSwap(peerDying, peerDown)
	lv.d.peersDown.Add(1)
	lv.d.emit(obs.EvPeerDown, local, peer, 0, 0)
	lv.epoch[local].Add(1)
	lv.downCause[i].Store(cause)
	if cause == causeNet {
		lv.d.rel.parkPair(local, peer)
		lv.probeGap[i].Store(1)
		lv.probeNext[i].Store(lv.round.Load() + 1)
		lv.d.emit(obs.EvPartitionSuspected, local, peer, 0, 0)
	} else {
		lv.d.rel.releasePair(local, peer)
	}
	// Wake the rank so a parked waiter re-polls and observes the epoch
	// change promptly instead of waiting out parkTimeout.
	lv.d.eps[local].notify()
}

// heal returns a silence-declared-Down peer to Alive under the SAME
// incarnation — the partition-recovery path, distinct from readmission
// (no incarnation change, no address rewrite, no pair reset). Called from
// the socket reader when authentic same-incarnation traffic (a probe or
// its ack) arrives for a pair that is Down with causeNet. The parked
// reliability pair is re-armed (backoff reset, immediate retransmit)
// BEFORE Alive becomes visible, so a sender observing Alive never races a
// still-parked stream. deaths/epoch are left alone: the death already
// happened and was swept; ops issued after the heal carry the bumped
// generation stamp and survive any sweep for the old death (domain.go).
func (lv *liveness) heal(local, peer int) {
	lv.mmu.Lock()
	defer lv.mmu.Unlock()
	i := lv.idx(local, peer)
	if lv.state[i].Load() != peerDown || lv.downCause[i].Load() != causeNet {
		return
	}
	lv.d.rel.healPair(local, peer)
	lv.downCause[i].Store(causeNone)
	lv.heardRound[i].Store(lv.round.Load())
	lv.staleEv[i].Store(false)
	lv.state[i].Store(peerAlive)
	lv.d.peersHealed.Add(1)
	lv.d.emit(obs.EvPeerHealed, local, peer, int64(lv.peerInc[i].Load()), 0)
	// Wake the rank: ops refused while the peer was Down can flow again.
	lv.d.eps[local].notify()
}

// handleProbe processes a probe frame from peer claiming incarnation inc.
// Runs on the socket reader goroutine. Probes bypass checkInc (a Down
// peer's frames are exactly what they authenticate) but carry their own
// gate: only the recorded incarnation heals — an unknown peer is not
// adopted (that is first-contact traffic's job) and a stale stamp is the
// dead process draining out. A probe against an Alive pair is just proof
// of life; that is the asymmetric case — B downed A, A still sees B — in
// which A's acks let B heal and the views reconverge.
func (lv *liveness) handleProbe(local, peer int, inc uint32, kind byte) {
	if peer < 0 || peer >= lv.ranks || peer == local || inc == 0 {
		return
	}
	i := lv.idx(local, peer)
	rec := lv.peerInc[i].Load()
	if rec == 0 || inc != rec {
		if rec != 0 && inc < rec {
			lv.noteStale(local, peer, inc, rec)
		}
		return
	}
	if lv.state[i].Load() == peerDown {
		if lv.downCause[i].Load() != causeNet {
			return // said goodbye or was superseded: stays dead
		}
		lv.heal(local, peer)
	} else {
		lv.heard(local, peer)
	}
	if kind == probeKindProbe {
		lv.sendProbe(local, peer, probeKindAck)
	}
}

// tick runs one detector step on the reliability ticker. When a heartbeat
// period has elapsed it broadcasts a round, advances the logical clock,
// and sweeps the grid; ticks between rounds (and ticks delayed by the
// scheduler) neither send nor accrue silence — see the type comment.
func (lv *liveness) tick(now int64) {
	if now-lv.lastHB < lv.hbEvery {
		return
	}
	lv.lastHB = now
	lv.broadcast()
	if lv.rejoin {
		lv.sendJoins()
	}
	round := lv.round.Add(1)
	for local := 0; local < lv.ranks; local++ {
		if lv.self >= 0 && local != lv.self {
			continue // only Self observes in a multiproc world
		}
		for peer := 0; peer < lv.ranks; peer++ {
			if peer == local {
				continue
			}
			i := lv.idx(local, peer)
			if lv.peerInc[i].Load() == 0 {
				// Never heard from this peer (we booted as a rejoiner):
				// silence accrues only against a known incarnation, so a
				// rejoining rank cannot spuriously bury survivors it has
				// not met yet. A truly-dead peer is still caught by
				// retransmission exhaustion the moment we send to it.
				continue
			}
			silent := round - lv.heardRound[i].Load()
			switch lv.state[i].Load() {
			case peerAlive:
				if silent >= lv.downRounds {
					lv.markDown(local, peer, causeNet)
				} else if silent >= lv.suspectRounds {
					lv.markSuspect(local, peer)
				}
			case peerSuspect:
				if silent >= lv.downRounds {
					lv.markDown(local, peer, causeNet)
				}
			}
		}
	}
	lv.sendProbes(round)
}

// hbFrameLen is the heartbeat frame:
// [frameHB u8] [sender rank u16 LE] [sender incarnation u32 LE].
const hbFrameLen = 7

// joinFrameMin is the fixed prefix of a join announcement:
// [frameJoin u8] [sender rank u16 LE] [sender incarnation u32 LE]
// [addr len u8], followed by the sender's UDP address as text. The
// address rides in the frame because a restarted rank binds a fresh
// socket — survivors' address tables point at the dead port until
// readmission rewrites them.
const joinFrameMin = 8

// broadcast ships one heartbeat from every rank to every non-down peer.
// Heartbeats are unsequenced and unreliable — losing one is exactly the
// signal the detector measures — and they traverse each sender's real
// send path, including the fault-injection shim, so a rank whose sends
// are all dropped goes silent for everyone else.
func (lv *liveness) broadcast() {
	var frame [hbFrameLen]byte
	frame[0] = frameHB
	binary.LittleEndian.PutUint32(frame[3:7], lv.d.inc)
	for from := 0; from < lv.ranks; from++ {
		if lv.self >= 0 && from != lv.self {
			continue // only Self has a socket in a multiproc world
		}
		binary.LittleEndian.PutUint16(frame[1:3], uint16(from))
		for to := 0; to < lv.ranks; to++ {
			if to == from || lv.down(from, to) {
				continue
			}
			lv.d.heartbeatsSent.Add(1)
			lv.d.writeFrame(from, to, frame[:])
		}
	}
}

// sendProbes ships one probe at every silence-declared-Down pair whose
// pacing window has opened, then doubles the pair's gap toward
// probeGapMax. Probes traverse the sender's real send path — fault shim
// included — so during a partition they are cut like everything else and
// the heal fires only once the network actually heals. Ticker goroutine.
func (lv *liveness) sendProbes(round int64) {
	for local := 0; local < lv.ranks; local++ {
		if lv.self >= 0 && local != lv.self {
			continue // only Self has a socket in a multiproc world
		}
		for peer := 0; peer < lv.ranks; peer++ {
			if peer == local {
				continue
			}
			i := lv.idx(local, peer)
			if lv.state[i].Load() != peerDown || lv.downCause[i].Load() != causeNet {
				continue
			}
			if round < lv.probeNext[i].Load() {
				continue
			}
			gap := int64(lv.probeGap[i].Load())
			lv.probeNext[i].Store(round + gap)
			if gap < probeGapMax {
				lv.probeGap[i].Store(int32(min(gap*2, probeGapMax)))
			}
			lv.sendProbe(local, peer, probeKindProbe)
		}
	}
}

// sendProbe ships one probe or probe-ack frame. Any goroutine.
func (lv *liveness) sendProbe(local, peer int, kind byte) {
	var frame [probeFrameLen]byte
	frame[0] = frameProbe
	binary.LittleEndian.PutUint16(frame[1:3], uint16(local))
	binary.LittleEndian.PutUint32(frame[3:7], lv.d.inc)
	frame[7] = kind
	lv.d.probesSent.Add(1)
	lv.d.writeFrame(local, peer, frame[:])
}

// sendJoins announces this rank's new incarnation to every peer that has
// not yet acknowledged traffic from it. Runs on the ticker each heartbeat
// round while rejoin is set — join frames are unsequenced and ride the
// same lossy path as heartbeats, so announcement is retried until the
// proof of readmission arrives: a cumulative ack covering any sequenced
// frame this incarnation sent (the peer's incarnation gate would have
// dropped it otherwise). Idle pairs keep announcing at heartbeat cadence;
// the first acked datagram stops it.
func (lv *liveness) sendJoins() {
	self := lv.self // rejoin implies multiproc, so self >= 0
	pending := false
	for to := 0; to < lv.ranks; to++ {
		if to == self || lv.down(self, to) {
			continue
		}
		p := lv.d.rel.pair(self, to)
		p.mu.Lock()
		acked := p.sendAcked
		p.mu.Unlock()
		if acked > 0 {
			continue // the peer acked new-incarnation traffic: readmitted
		}
		pending = true
		lv.d.joinsSent.Add(1)
		lv.d.writeFrame(self, to, lv.joinFrame)
	}
	if !pending {
		lv.rejoin = false // every live peer has us; stop announcing
	}
}

// handleJoin processes a join announcement from peer claiming incarnation
// inc at addr. Runs on the socket reader goroutine. A duplicate of the
// current incarnation is proof of life (announcement is retried until
// acked); a stamp older than the recorded incarnation is the dead
// process's last frames draining out; anything newer — or a first
// contact — goes through readmit.
func (lv *liveness) handleJoin(local, peer int, inc uint32, addr netip.AddrPort) {
	if peer < 0 || peer >= lv.ranks || peer == local || inc == 0 {
		return
	}
	rec := lv.peerInc[lv.idx(local, peer)].Load()
	switch {
	case rec == inc:
		lv.heard(local, peer)
	case rec != 0 && inc < rec:
		lv.noteStale(local, peer, inc, rec)
	default:
		lv.readmit(local, peer, inc, addr)
	}
}

// readmit installs a new incarnation of peer: the multi-step
// Down→Readmitted transition at the core of elastic membership. If the
// old incarnation was never declared dead (a fast restart, quicker than
// DownAfter), it is declared dead NOW — every op in flight against it
// must fail with ErrPeerUnreachable, never silently retarget the new
// process. Then the pair's reliability state resets on our side (the
// joiner's is fresh by construction — this symmetry is what keeps the
// sequenced streams coherent), the address table learns the new socket,
// and the peer returns to Alive under its new identity. Ordering within:
// the pair must be fully reset before Alive becomes visible, so a sender
// that observes Alive never races a half-buried stream.
func (lv *liveness) readmit(local, peer int, inc uint32, addr netip.AddrPort) {
	lv.mmu.Lock()
	defer lv.mmu.Unlock()
	i := lv.idx(local, peer)
	rec := lv.peerInc[i].Load()
	if rec == inc || (rec != 0 && inc < rec) {
		return // another reader resolved this join while we waited
	}
	hadOld := rec != 0
	wasDown := lv.state[i].Load() == peerDown
	if hadOld && !wasDown {
		// Superseded, not partitioned: bury terminally (no probes, pair
		// released) — the new incarnation gets a fresh stream below.
		lv.markDown(local, peer, causeBye)
		wasDown = true
	}
	if addr.IsValid() {
		lv.d.udp.setAddr(peer, addr)
	}
	if hadOld || wasDown {
		lv.d.rel.resetPair(local, peer)
	}
	lv.peerInc[i].Store(inc)
	lv.heardRound[i].Store(lv.round.Load())
	lv.staleEv[i].Store(false)
	lv.downCause[i].Store(causeNone)
	lv.state[i].Store(peerAlive)
	if hadOld || wasDown {
		lv.d.peersReadmitted.Add(1)
		lv.d.emit(obs.EvPeerReadmitted, local, peer, int64(inc), int64(rec))
		// Wake the rank: ops refused while the peer was Down can flow again.
		lv.d.eps[local].notify()
	}
}
