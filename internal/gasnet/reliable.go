package gasnet

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gupcxx/internal/obs"
)

// The reliability layer gives the UDP conduit the delivery guarantees the
// rest of the runtime assumes, the way GASNet-EX's UDP conduit implements
// its own acks, retransmission, and duplicate suppression on top of raw
// datagrams: datagrams may be dropped, duplicated, or reordered (see
// fault.go) and every active message is still delivered exactly once, in
// per-peer FIFO order.
//
// Wire format: every payload datagram is wrapped in a sequenced frame
//
//	[frameSeq u8] [sender rank u16 LE] [incarnation u32 LE] [seq u32 LE] [ack u32 LE] [inner]
//
// where inner is a complete frameSingle or frameBatch frame — a coalesced
// burst rides inside one sequenced frame and is retransmitted as a unit.
// seq numbers one sender→receiver stream, starting at 1; seq 0 marks a
// standalone acknowledgment carrying no inner frame, only an optional
// 8-byte SACK trailer (streams.go): any other trailer length is a decode
// error. ack cumulatively acknowledges the reverse stream: every outgoing
// datagram piggybacks the highest contiguously received sequence number
// from its destination. incarnation is the sender's epoch-stamped identity
// (lifecycle.go): a frame stamped with a dead incarnation of the sender — a
// datagram that outlived its process — is rejected before any ack or
// delivery processing, so a restarted rank's fresh streams are never
// corrupted by its predecessor's retransmissions.
//
// What the two streams of a pair do — sealing, windowing, the RTT
// estimator, SACK-driven fast retransmit, the retransmission timer,
// reordering, duplicate suppression and ack pacing — is the pure
// streams.step (streams.go). This file holds its appliers: trySeal (the
// send path), receive (the socket reader), tickPeer (the ticker) and
// flushAcks (the owner's poll loop) each take the peer lock, step, deliver
// and release what the step handed over, and put frames on the wire only
// after unlocking. A frame sealed beyond the window blocks its owner's
// flush (coalescer, udp.go) — bounded: the block re-checks the peer's
// liveness, so a peer declared Down mid-block wakes its senders promptly
// instead of wedging them (the op pipeline then fails the operations with
// ErrPeerUnreachable). Callers that must not block at
// all ask first via admit (credit-based admission, surfaced as
// Endpoint.AdmitSend and core.Engine initiation). Exhausting the
// retransmission budget (Config.RelMaxAttempts, default relMaxAttempts)
// declares the destination down through the peer lifecycle (lifecycle.go):
// its queue is parked, its pending operations fail with ErrPeerUnreachable,
// and the job keeps running.
//
// Sequence numbers are 32-bit and do not wrap: at the conduit's datagram
// rates, exhausting them would take years of continuous traffic.

const (
	// relHeaderLen is the sequenced-frame prefix: tag, sender rank,
	// sender incarnation, seq, ack.
	relHeaderLen = 1 + 2 + 4 + 4 + 4

	// relWindow bounds both the per-pair in-flight (unacked) datagrams and
	// the receive-side reorder buffer.
	relWindow = 256

	// relRTO is the initial retransmission timeout used until the RTT
	// estimator has its first sample — comfortably above a loopback round
	// trip plus the receiver's worst-case ack delay, so a healthy run
	// retransmits (almost) nothing. Once samples arrive the estimator's
	// RTO (clamped to [relRTOMin, relRTOMax]) takes over; backoff doubles
	// it per expiry without progress up to relRTOMax.
	relRTO    = int64(5 * time.Millisecond)
	relRTOMin = int64(2 * time.Millisecond)
	relRTOMax = int64(100 * time.Millisecond)

	// relWindowMin is the default window floor: the congestion window is
	// never halved below this many datagrams, so even a heavily-lossy pair
	// keeps a minimal pipeline.
	relWindowMin = 8

	// relReorderBytes is the default per-pair byte budget for parked
	// out-of-order frames; parking beyond it sheds the frame furthest
	// from delivery (see streams.park).
	relReorderBytes = 1 << 20

	// relShedSuspect sheds within one ticker pass mark the overloading
	// sender Suspect — sustained receive-side pressure is a liveness
	// signal, not just an accounting line.
	relShedSuspect = 4

	// relBPWait is the default bound on blocking admission
	// (Config.BackpressureWait): how long AdmitSend may wait for a window
	// credit before giving up with ErrBackpressure.
	relBPWait = 2 * time.Second

	// relMaxAttempts retransmissions without an ack declare the peer
	// down: it is dead or the network is partitioned, and retrying forever
	// would hide it.
	relMaxAttempts = 64

	// relAckDelay is how long a receiver sits on a pending ack hoping to
	// piggyback it on an outgoing datagram before the ticker ships a
	// standalone one — the default until the RTT estimator has samples,
	// after which the per-pair delay tracks srtt/4 clamped to
	// [relAckDelayMin, relAckDelayMax] (well under the sender's RTO, so
	// pacing never provokes a retransmission).
	relAckDelay    = int64(time.Millisecond)
	relAckDelayMin = int64(250 * time.Microsecond)
	relAckDelayMax = int64(4 * time.Millisecond)

	// relAckEvery forces a standalone ack after this many deliveries since
	// the last shipped ack, so a one-way stream keeps the sender's window
	// open without waiting out relAckDelay each time.
	relAckEvery = 32

	// relTickInterval is the retransmit/standalone-ack ticker period.
	relTickInterval = time.Millisecond
)

// Ack urgency levels, the values of peer.ackHint and the threshold
// flushAcks ships at. Where a pending ack leaves follows from what the
// frames it acknowledges carried (DESIGN.md §8.2, "Where an ack leaves"):
//
//   - A frame of replies only (hPutAck — the cumulative reply — hGetRep,
//     hAmoRep, and the ids the runtime registers with
//     Domain.RegisterReplyHandler) completes ops this rank started, and
//     its sender expects nothing back but the ack.
//     The ack is lazy: it rides this rank's next frame to the sender — in
//     a blocking loop, the next request — or leaves at the rank's next
//     Idle, or at the ticker's pacing deadline (ackDelay).
//   - Any other frame — a request, a collective token, a user message, a
//     mix — makes it urgent: it leaves at the end of the Poll that
//     dispatched the frame, if no reply carried it first.
//
// A gap, a duplicate and relAckEvery deliveries still ack at once, from
// the reader (streams.data).
const (
	ackNone uint32 = iota
	ackLazy
	ackUrgent
)

// peer is everything hosted rank `local` keeps about rank `peer`, in one
// record behind one mutex: what it believes about the peer's liveness and
// identity (lc, stepped only by host.transition — liveness.go), and both
// sequenced streams between them (stepped only by host.stepStreams). The
// mutex is taken by the local rank's send path, by the reader of local's
// socket (the owner or the ticker, host.readSocket), and by the ticker. "Is the peer down" has one source of
// truth, lc.state: while it reads peerDown, trySeal drops new sends (no new
// sequence numbers, no new gaps), the ticker retransmits nothing, and
// window-blocked senders drain out.
type peer struct {
	mu sync.Mutex
	lc lifecycle

	// What lock-free readers need of lc, republished by host.transition:
	// state for PeerDown / LivenessState / the heartbeat fan-out, deaths
	// for DownGen, inc for IncarnationOf. deaths is published BEFORE a
	// Down state — PeerDown(peer) == true implies DownGen already includes
	// that death — so an op that saw the peer Down (or was refused because
	// of it) never stamps the buried generation.
	state  atomic.Int32
	deaths atomic.Uint32
	inc    atomic.Uint32

	streams

	// ackHint mirrors ackPending, with how soon the pending ack must leave,
	// for the progress calls' lock-free glance (flushAcks): ackLazy while
	// every frame it covers carried only replies, ackUrgent once any other
	// frame joined it. Raised by the applier after each delivery while an
	// ack is pending; cleared under the lock by flushAcks and by a seal the
	// ack rode on. Stale-high costs one mutex acquisition; it is never
	// stale-low.
	ackHint atomic.Uint32

	// High-water marks of the window-bounded queues, surfaced through
	// Stats so capacity pressure is observable rather than inferred.
	inflightHW int
	reorderHW  int
}

// reliability is the per-domain instance: the ticker goroutine (run,
// started by initUDP) that drives retransmissions, overdue standalone acks
// and the failure detector's rounds over every hosted rank's peer row
// (udp.go).
type reliability struct {
	d *Domain

	// The failure detector's cadence, ticker-goroutine-local: the ticker
	// completes a heartbeat round every hbEvery ns (lastHB is the
	// cached-clock time of the last one) and hands its number to every
	// peer record as an evRound.
	hbEvery int64
	lastHB  int64
	round   int64

	// rejoin marks this domain as a restarted rank (Config.Rejoin): the
	// ticker announces the new incarnation with joinFrame
	// ([frameJoin][rank u16][incarnation u32][addr len u8][addr]) each
	// heartbeat round until every live peer has acked new-incarnation
	// traffic.
	rejoin    bool
	joinFrame []byte

	closed   atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

func newReliability(d *Domain, now int64) *reliability {
	r := &reliability{
		d:       d,
		hbEvery: int64(d.cfg.HeartbeatEvery),
		lastHB:  now,
		rejoin:  d.cfg.Rejoin,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if r.rejoin {
		addr := []byte(d.cfg.Peers[d.cfg.Self].String())
		r.joinFrame = make([]byte, joinFrameMin+len(addr))
		r.joinFrame[0] = frameJoin
		binary.LittleEndian.PutUint16(r.joinFrame[1:3], uint16(d.cfg.Self))
		binary.LittleEndian.PutUint32(r.joinFrame[3:7], d.inc)
		r.joinFrame[7] = byte(len(addr))
		copy(r.joinFrame[joinFrameMin:], addr)
	}
	return r
}

// parseRelHeader validates a sequenced frame's fixed prefix. The inner
// frame, if any, starts at relHeaderLen; a standalone ack (seq 0) carries
// nothing there but, optionally, its sackLen-byte SACK bitmap.
func parseRelHeader(b []byte) (from uint16, inc, seq, ack uint32, err error) {
	if len(b) < relHeaderLen {
		return 0, 0, 0, 0, fmt.Errorf("gasnet: truncated sequenced frame (%d bytes)", len(b))
	}
	if b[0] != frameSeq {
		return 0, 0, 0, 0, fmt.Errorf("gasnet: sequenced frame has tag %#x", b[0])
	}
	from = binary.LittleEndian.Uint16(b[1:3])
	inc = binary.LittleEndian.Uint32(b[3:7])
	seq = binary.LittleEndian.Uint32(b[7:11])
	ack = binary.LittleEndian.Uint32(b[11:15])
	if n := len(b) - relHeaderLen; seq == 0 && n != 0 && n != sackLen {
		return 0, 0, 0, 0, fmt.Errorf("gasnet: standalone ack with a %d-byte trailer", n)
	}
	return from, inc, seq, ack, nil
}

// seal is trySeal that blocks while the in-flight congestion window is
// full — but the block is liveness-aware: the owner waits in its own
// socket (host.wait), where the acks that free credit arrive, and a peer
// declared Down mid-block wakes it and is re-checked, so the sender drains
// out promptly instead of wedging against a peer that will never ack.
// Admission-controlled callers (AdmitSend) normally reserve credit before
// reaching here, so this block is the backstop, not the policy. Before
// each wait it writes the frames the owner has already sealed (the
// caller holds h.co.mu): they may be why no acknowledgments are coming.
// It reports false for a dropped frame: racing shutdown, or a
// declared-dead destination (the op pipeline fails down-peer operations
// with ErrPeerUnreachable; stalling the sender here would deadlock it
// against a peer that will never ack). Owner goroutine only.
func (r *reliability) seal(h *host, to int, wb *wireBuf) bool {
	for {
		if ok, full := r.trySeal(h, to, wb); ok || !full {
			return ok
		}
		h.writeStaged()
		h.wait(parkTimeout)
	}
}

// trySeal stamps wb (whose first relHeaderLen bytes the coalescer
// reserved) with the next sequence number for h.rank→to and the
// piggybacked cumulative ack for to→h.rank, and retains it in the
// retransmission queue, without blocking and without putting it on the
// wire — the coalescer seals its staged frames one by one and ships them
// in a single vectorized write. ok reports the frame was sealed (the
// caller must now transmit wb.b exactly once, by any path);
// when ok is false, full distinguishes a momentarily-full congestion
// window (retry after letting acks drain) from a dropped frame
// (shutdown or down peer — the caller still owns its wb reference).
func (r *reliability) trySeal(h *host, to int, wb *wireBuf) (ok, full bool) {
	p := &h.peers[to]
	p.mu.Lock()
	if r.closed.Load() || p.lc.state == peerDown {
		p.mu.Unlock()
		return false, false
	}
	// A seal hands no frames over and puts none on the wire: it needs none
	// of stepStreams' draining.
	fx := p.step(streamEvent{kind: sevSend, wb: wb}, clockRefresh())
	if fx.do&sfxFull != 0 {
		p.mu.Unlock()
		return false, true
	}
	if fx.do&sfxPiggyback != 0 {
		r.d.acksPiggybacked.Add(1)
		p.ackHint.Store(ackNone)
	}
	p.inflightHW = max(p.inflightHW, len(p.inflight))
	// The bytes are final before the entry can be retransmitted by anyone:
	// every later write of this frame, from any goroutine, only reads them.
	b := wb.b
	b[0] = frameSeq
	binary.LittleEndian.PutUint16(b[1:3], uint16(h.rank))
	binary.LittleEndian.PutUint32(b[3:7], r.d.inc)
	binary.LittleEndian.PutUint32(b[7:11], fx.seq)
	binary.LittleEndian.PutUint32(b[11:15], fx.ack)
	wb.retain(1) // the retransmission queue's reference; released on ack
	p.mu.Unlock()
	return true, false
}

// receive processes one sequenced frame addressed to ep, taking ownership
// of wb: the ack half completes our own send stream toward the frame's
// sender, the seq half delivers, buffers, or drops the inner frame. It
// runs on whichever goroutine reads ep's socket (host.readSocket) — the
// owner, or the ticker — so the retransmissions an ack reveals leave from
// here, one round trip after the loss, not a timer later.
func (r *reliability) receive(ep *Endpoint, wb *wireBuf) {
	d := r.d
	from, inc, seq, ack, err := parseRelHeader(wb.b)
	if err != nil || int(from) >= d.cfg.Ranks {
		d.decodeErrors.Add(1)
		wb.release()
		return
	}
	h := ep.host
	p := &h.peers[from]
	ev := streamEvent{kind: sevData, seq: seq, cum: ack, wb: wb, size: len(wb.b)}
	if seq == 0 {
		ev = streamEvent{kind: sevAck, cum: ack}
		if len(wb.b) > relHeaderLen {
			ev.sack = binary.LittleEndian.Uint64(wb.b[relHeaderLen:])
		}
	}

	p.mu.Lock()
	// Incarnation gate before ANY processing, inside the lock the rest of
	// the frame needs anyway: a frame from a dead incarnation of the
	// sender must not refresh liveness, complete acks, or deliver — its
	// process is gone and its streams were reset (or will be, on
	// readmission). Passing it is proof of life; heartbeats only carry
	// the idle case.
	if h.transition(p, int(from), event{kind: evHeard, inc: inc}).do&fxAccept == 0 {
		p.mu.Unlock()
		wb.release()
		return
	}
	fx := h.stepStreams(p, int(from), ev, clockRefresh())
	p.mu.Unlock()

	if seq == 0 {
		wb.release()
	}
	r.ship(h, int(from), &fx)
}

// stepStreams steps p's streams through ev and does, before the caller
// drops p.mu, what cannot wait: deliver the frames the step made ready (in
// order, so per-pair FIFO holds whichever goroutine received them), release
// the ones it spent, take a write reference on each frame to retransmit,
// and account. Caller holds p.mu and passes the result to ship after
// unlocking.
func (h *host) stepStreams(p *peer, to int, ev streamEvent, now int64) streamFx {
	ep := h.ep
	d := ep.dom
	fx := p.step(ev, now)
	level := ackNone // the most urgent ack the frames delivered here ask for
	if fx.do&sfxDeliver != 0 {
		level = d.deliverParsed(ep, to, ev.wb, ev.wb.b[relHeaderLen:])
	}
	for i, wb := range p.ready {
		level = max(level, d.deliverParsed(ep, to, wb, wb.b[relHeaderLen:]))
		p.ready[i] = nil
	}
	p.ready = p.ready[:0]
	// Every delivery a pending ack covers raises its hint, not only the one
	// that armed it: a request behind a reply-only frame makes the ack
	// urgent. The hint rises after the push, so a Poll that has not seen
	// the messages yet does not ship the ack their replies would carry.
	if p.ackPending && level > p.ackHint.Load() {
		p.ackHint.Store(level)
	}
	for i, wb := range p.spent {
		wb.release()
		p.spent[i] = nil
	}
	p.spent = p.spent[:0]
	if fx.grown > 0 {
		d.windowGrows.Add(1)
		if int(fx.grown) == d.cfg.RelWindow {
			// Fully recovered to the configured ceiling — one event per
			// recovery, not one per growth step.
			d.emit(obs.EvWindowGrow, h.rank, to, int64(fx.grown), 0)
		}
	}
	if fx.do&(sfxForged|sfxDup|sfxOutOfWindow|sfxRTO) != 0 || fx.nrtx != 0 || fx.shed != 0 || fx.was != 0 {
		h.countLoss(p, to, &fx)
	}
	p.reorderHW = max(p.reorderHW, p.nparked)
	if fx.do&sfxReleased != 0 {
		// Frames left the in-flight window. No op completes on a transport
		// ack — every op completes on a reply message, its own or a
		// cumulative one — but a rank may be
		// parked waiting for exactly this: World.drainWire waits until
		// nothing it sent is in flight before it closes, and a window-blocked
		// sender waits for credit. Wake it now rather than at the park
		// timeout, unless it read the ack itself. (A wake is a coalescing
		// non-blocking send and a deadline store; safe under p.mu.)
		h.wakeOwner()
	}
	return fx
}

// countLoss is stepStreams' accounting for the steps that saw loss or
// hostile input, and takes a write reference on each frame to retransmit
// (an ack may release its entry before the write).
func (h *host) countLoss(p *peer, to int, fx *streamFx) {
	d := h.ep.dom
	if fx.nrtx > 0 {
		for _, wb := range fx.rtx[:fx.nrtx] {
			wb.retain(1)
		}
		d.retransmits.Add(int64(fx.nrtx))
		if fx.do&sfxRTO == 0 {
			d.fastRetransmits.Add(int64(fx.nrtx))
		}
	}
	if fx.do&sfxForged != 0 {
		d.decodeErrors.Add(1)
	}
	if fx.do&sfxDup != 0 {
		d.dupsDropped.Add(1)
	}
	if fx.do&sfxOutOfWindow != 0 {
		d.outOfWindowDrops.Add(1)
	}
	if fx.do&sfxRTO != 0 {
		d.rtoExpirations.Add(1)
	}
	if fx.shed > 0 {
		d.shedFrames.Add(int64(fx.shed))
		d.shedBytes.Add(int64(fx.shedB))
	}
	if fx.was > 0 {
		d.windowShrinks.Add(1)
		d.emit(obs.EvWindowShrink, h.rank, to, int64(fx.was), int64(p.cwnd))
	}
}

// ship puts a step's frames on the wire — its retransmissions, then its
// standalone ack — once the peer lock is dropped.
func (r *reliability) ship(h *host, to int, fx *streamFx) {
	for _, wb := range fx.rtx[:fx.nrtx] {
		h.writeFrame(to, wb.b)
		wb.release()
	}
	if fx.do&sfxAck != 0 {
		r.sendAck(h, to, fx.ack, fx.sack)
	}
}

// flushAcks ships every pending ack on h's receive streams whose hint is
// at least level, right away: ackUrgent from Poll after its dispatch round
// and its replies (an ack a reply carried is no longer pending), ackLazy
// from Idle before the rank parks. It is the eager half of ack pacing: an
// ack a request frame asked for leaves from the goroutine that is actually
// running, not at the ticker's pacing deadline, and a lazy ack that found
// no frame to ride on leaves before its rank sleeps. The ticker remains
// the backstop for ranks that stop calling progress. On oversubscribed
// hosts (more ranks than cores — every process-per-rank world on a small
// machine) the ticker goroutine can be starved past the sender's RTO by
// the very poll loop that just consumed the data; flushing here turns that
// retransmission storm back into one timely ack.
func (r *reliability) flushAcks(h *host, level uint32) {
	for to := range h.peers {
		p := &h.peers[to]
		if p.ackHint.Load() < level {
			continue
		}
		// A flush only ever ships an ack: none of stepStreams' draining.
		p.mu.Lock()
		fx := p.step(streamEvent{kind: sevFlush}, 0)
		p.ackHint.Store(ackNone)
		p.mu.Unlock()
		if fx.do&sfxAck != 0 {
			r.sendAck(h, to, fx.ack, fx.sack)
		}
	}
}

// sendAck ships a standalone cumulative acknowledgment (seq 0, no inner
// frame) h.rank→to, with the SACK trailer when anything is parked beyond
// the gap. Standalone acks are unsequenced and unreliable: a lost ack is
// repaired by the next ack or by the sender's retransmission.
func (r *reliability) sendAck(h *host, to int, ack uint32, sack uint64) {
	d := r.d
	n := relHeaderLen
	if sack != 0 {
		n += sackLen
		d.sackAcks.Add(1)
	}
	wb := d.arena.get(n)
	b := wb.b
	b[0] = frameSeq
	binary.LittleEndian.PutUint16(b[1:3], uint16(h.rank))
	binary.LittleEndian.PutUint32(b[3:7], d.inc)
	binary.LittleEndian.PutUint32(b[7:11], 0)
	binary.LittleEndian.PutUint32(b[11:15], ack)
	if sack != 0 {
		binary.LittleEndian.PutUint64(b[relHeaderLen:], sack)
	}
	d.acksStandalone.Add(1)
	h.writeFrame(to, b)
	wb.release()
}

// run is the ticker goroutine: it keeps the cached clock fresh and makes
// one pass over every hosted rank's socket (host.tickRead), staged sends
// (host.backstop) and peer row per tick.
func (r *reliability) run() {
	defer close(r.done)
	t := time.NewTicker(relTickInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.tick(clockRefresh())
		}
	}
}

// tick is one ticker step. When a heartbeat period has elapsed the
// detector's logical clock advances and this pass is also a heartbeat
// round; ticks between rounds (and ticks delayed by the scheduler)
// neither send heartbeats nor accrue silence. A rejoining rank stops
// announcing itself once a round finds no peer still owed a join.
func (r *reliability) tick(now int64) {
	var round int64 // 0: not a heartbeat boundary (rounds count from 1)
	if now-r.lastHB >= r.hbEvery {
		r.lastHB = now
		r.round++
		round = r.round
	}
	joining := false
	for _, h := range r.d.udp.hosts {
		// Read first: the acks queued since the owner last read are what
		// the retransmission timer below would otherwise act without.
		h.tickRead()
		h.backstop(now)
		for to := range h.peers {
			if r.tickPeer(h, to, now, round) {
				joining = true
			}
		}
	}
	if round != 0 && !joining {
		r.rejoin = false // every live peer has us; stop announcing
	}
	// Network-model housekeeping: scenario phases and delayed
	// (latency-injected) datagrams run off the same tick.
	r.d.faultTick(now)
}

// tickPeer is the ticker's whole business with one peer record, in one
// lock hold: step the streams through a tick (the retransmission timer,
// an overdue paced ack, the shed-burst verdict) and act on its verdicts —
// a frame out of attempts means the peer is dead or partitioned, so the
// lifecycle declares it down, pending operations fail with
// ErrPeerUnreachable through the Poll-time sweep, and the job decides what
// to do; sustained receive-side shedding marks the flooding sender
// Suspect. On a heartbeat boundary it also ships the heartbeat, steps the
// lifecycle through the round (silence thresholds, probe pacing) and
// decides whether the peer is still owed a join announcement, which it
// reports. Heartbeats, probes, joins and standalone acks are unsequenced
// and unreliable — losing one is exactly the signal the detector measures
// — and traverse the sender's real send path, fault shim included, so a
// rank whose sends are all dropped goes silent for everyone else.
func (r *reliability) tickPeer(h *host, to int, now, round int64) (joining bool) {
	d := r.d
	p := &h.peers[to]
	beat := round != 0 && to != h.rank
	if beat && p.state.Load() != peerDown {
		d.heartbeatsSent.Add(1)
		h.writeFrame(to, h.hbFrame[:])
	}
	var fx effects
	var sf streamFx

	p.mu.Lock()
	if p.lc.state != peerDown { // a parked queue must not retransmit into the partition
		sf = h.stepStreams(p, to, streamEvent{kind: sevTick}, now)
		switch {
		case sf.do&sfxExhausted != 0:
			d.retransmitExhausted.Add(1)
			d.emit(obs.EvRetransmitExhausted, h.rank, to, int64(sf.seq), 0)
			h.transition(p, to, event{kind: evExhausted})
		case sf.do&sfxShedBurst != 0:
			h.transition(p, to, event{kind: evShedBurst})
		}
	}
	if beat {
		fx = h.transition(p, to, event{kind: evRound, n: round})
		// Announcement is retried until the proof of readmission arrives:
		// a cumulative ack covering any sequenced frame this incarnation
		// sent (the peer's incarnation gate would have dropped it
		// otherwise).
		joining = r.rejoin && p.lc.state != peerDown && p.sendAcked == 0
	}
	p.mu.Unlock()

	r.ship(h, to, &sf)
	if joining {
		d.joinsSent.Add(1)
		h.writeFrame(to, r.joinFrame)
	}
	h.sendProbes(to, fx)
	return joining
}

// shutdown stops the ticker (idempotent) and marks the layer closed so
// window-blocked senders drain out.
func (r *reliability) shutdown() {
	r.stopOnce.Do(func() {
		r.closed.Store(true)
		close(r.stop)
	})
	<-r.done
}

// drainState releases every buffer still held by the coalescers, the read
// slots, retransmission queues and reorder buffers. Called after the
// ticker has stopped and the sockets are closed, so no concurrent access
// remains.
func (r *reliability) drainState() {
	for _, h := range r.d.udp.hosts {
		h.dropStaged()
		h.rmu.Lock()
		for i, wb := range h.rbufs {
			if wb != nil {
				wb.release()
				h.rbufs[i] = nil
			}
		}
		h.rmu.Unlock()
		for i := range h.peers {
			p := &h.peers[i]
			p.mu.Lock()
			h.stepStreams(p, i, streamEvent{kind: sevReset}, 0)
			p.mu.Unlock()
		}
	}
}
