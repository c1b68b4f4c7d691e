package gasnet

import (
	"encoding/binary"
	"fmt"
	"runtime"
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
// standalone acknowledgment carrying no inner frame. ack cumulatively
// acknowledges the reverse stream: every outgoing datagram piggybacks the
// highest contiguously received sequence number from its destination, and
// a domain-level ticker ships a standalone ack when a receiver has sat on
// a pending ack for longer than relAckDelay with nothing to piggyback it
// on. incarnation is the sender's epoch-stamped identity (lifecycle.go):
// a frame stamped with a dead incarnation of the sender — a datagram that
// outlived its process — is rejected before any ack or delivery
// processing, so a restarted rank's fresh streams are never corrupted by
// its predecessor's retransmissions.
//
// Sender side, per (sender, peer) pair: datagrams are stamped with the
// next sequence number and retained in a retransmission queue (one buffer
// reference each — see pool.go) until acknowledged. Retransmission timing
// is adaptive: each pair runs a Jacobson/Karels RTT estimator (srtt/rttvar
// updated from the ack timing of never-retransmitted datagrams — Karn's
// rule), and the derived RTO (srtt + 4·rttvar, clamped to
// [relRTOMin, relRTOMax]) seeds every new entry's deadline; per-entry
// exponential backoff still doubles it on each expiry. The queue is
// bounded by an adaptive congestion window run AIMD-style between
// Config.RelWindowMin and Config.RelWindow: an RTO expiry halves it (at
// most once per in-flight window of loss, guarded by a recovery sequence,
// the way TCP's fast-recovery exit works), and each cleanly-acked RTT
// sample grows it back by one. A send beyond the window blocks — bounded:
// the block re-checks the peer's liveness, so a peer declared Down
// mid-block wakes its senders promptly instead of wedging them (the op
// pipeline then fails the operations with ErrPeerUnreachable). Callers
// that must not block at all ask first via admit (credit-based admission,
// surfaced as Endpoint.AdmitSend and core.Engine initiation).
// Exhausting the retransmission budget
// (Config.RelMaxAttempts, default relMaxAttempts) declares the
// destination down through the peer lifecycle (lifecycle.go): its queue is
// parked, its pending operations fail with ErrPeerUnreachable, and the
// job keeps running.
//
// Receiver side, per pair: the next-expected frame is delivered
// immediately and drains any buffered successors; frames at or below the
// cumulative sequence are duplicates, dropped with an immediate re-ack
// (the sender is clearly retransmitting, so its ack got lost); frames
// beyond the window are dropped (the sender will retransmit once the
// window opens); everything else parks in a reorder buffer bounded both
// by the window (frame count) and by a byte budget
// (Config.RelReorderBytes): parking past the budget sheds the parked
// frame furthest from delivery (highest sequence — the one the sender
// retransmits last), so one peer's burst cannot pin unbounded arena
// memory, and sustained shedding from a peer feeds the liveness
// detector's Alive→Suspect transition. Standalone-ack pacing is also
// RTT-driven: the receiver holds a pending ack for about a quarter RTT
// (clamped) hoping to piggyback it before the ticker ships a standalone
// one.
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
	// RTO (clamped to [relRTOMin, relRTOMax]) takes over; per-entry
	// backoff doubles it per attempt up to relRTOMax.
	relRTO    = int64(5 * time.Millisecond)
	relRTOMin = int64(2 * time.Millisecond)
	relRTOMax = int64(100 * time.Millisecond)

	// relWindowMin is the default AIMD floor: the congestion window is
	// never halved below this many datagrams, so even a heavily-lossy pair
	// keeps a minimal pipeline.
	relWindowMin = 8

	// relReorderBytes is the default per-pair byte budget for parked
	// out-of-order frames; parking beyond it sheds the frame furthest
	// from delivery (see receive).
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

// relEntry is one unacknowledged datagram in a pair's retransmission
// queue. The queue holds its own reference on wb (released when the
// cumulative ack covers seq), and after the initial transmission the
// ticker is the only writer of the buffered bytes (it refreshes the
// piggybacked ack before each retransmit).
type relEntry struct {
	seq      uint32
	attempts int
	rto      int64
	deadline int64 // cached-clock time of the next retransmission
	sentAt   int64 // real-clock time of the initial transmission (RTT sampling)
	wb       *wireBuf
}

// peer is everything hosted rank `local` keeps about rank `peer`, in one
// record behind one mutex: what it believes about the peer's liveness and
// identity (lc, stepped only by host.transition — liveness.go), and both
// sequenced streams between them. The mutex is taken by the local rank's
// send path, by the reader goroutine of local's socket, and by the ticker.
// "Is the peer down" has one source of truth, lc.state: while it reads
// peerDown, trySeal drops new sends (no new sequence numbers, no new
// gaps), the ticker retransmits nothing, and window-blocked senders drain
// out.
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

	// ackHint mirrors ackPending for the poll loop's lock-free glance
	// (flushAcks): armed by the reader alongside ackPending, cleared under
	// the lock once the ack ships or piggybacks. Stale-true costs one
	// mutex acquisition; it is never stale-false.
	ackHint atomic.Bool

	// High-water marks of the window-bounded queues, surfaced through
	// Stats so capacity pressure is observable rather than inferred.
	inflightHW int
	reorderHW  int
}

// streams is the sequenced-stream half of a peer record: the send stream
// local→peer (sequence counter and retransmission queue) and the receive
// stream peer→local (cumulative sequence, reorder buffer, pending-ack
// bookkeeping). Readmission resets it as a unit (peer.reset).
type streams struct {
	// Send stream local→peer.
	nextSeq  uint32 // last assigned sequence number (first assigned is 1)
	inflight []relEntry

	// Congestion state for the send stream (Jacobson/Karels estimator +
	// AIMD window, see the package comment). srtt == 0 means no sample
	// yet; rto and cwnd are seeded by reset.
	srtt       int64  // smoothed RTT, ns
	rttvar     int64  // RTT mean deviation, ns
	rto        int64  // current estimator RTO, ns (seeds new entries)
	cwnd       int    // adaptive window, in [RelWindowMin, RelWindow]
	sendAcked  uint32 // highest cumulative ack the peer has sent us
	recoverSeq uint32 // no second multiplicative decrease until acked past this

	// Receive stream peer→local.
	cumSeq       uint32              // highest contiguously received
	lastAck      uint32              // last cumulative ack shipped to peer
	reorder      map[uint32]*wireBuf // buffered out-of-order frames
	reorderBytes int                 // bytes parked in reorder
	shedRecent   int                 // frames shed since the last ticker pass
	ackPending   bool
	ackSince     int64 // cached-clock time ackPending was set
	ackDelay     int64 // RTT-paced standalone-ack delay, ns

	// bpBlocked tracks whether the last admission attempt on this pair hit
	// a full window, so the ops plane sees backpressure onset/relief as
	// edge events rather than one event per refused admission
	// (backpressure.go).
	bpBlocked bool
}

// reliability is the per-domain instance: the ticker goroutine (run,
// started by initUDP) that drives retransmissions, overdue standalone acks
// and the failure detector's rounds over every hosted rank's peer row
// (udp.go). The window, attempt and budget bounds are read from the
// normalized Config.
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
// frame, if any, starts at relHeaderLen.
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
	return from, inc, seq, ack, nil
}

// send stamps wb (whose first relHeaderLen bytes were reserved by the
// caller) with the next sequence number for h.rank→to and the piggybacked
// cumulative ack for to→h.rank, retains it in the retransmission queue, and
// ships it. It blocks while the in-flight congestion window is full —
// but the block is liveness-aware: acks arrive on the socket reader
// goroutine (so credit frees without this goroutine running), and a peer
// declared Down mid-block is re-checked every wakeup, so the sender
// drains out promptly instead of wedging against a peer that will never
// ack. Admission-controlled callers (AdmitSend) normally reserve credit
// before reaching here, so this block is the backstop, not the policy.
func (r *reliability) send(h *host, to int, wb *wireBuf) {
	spin := 0
	for {
		ok, full := r.trySeal(h, to, wb)
		if ok {
			break
		}
		if !full {
			// Racing shutdown, or a declared-dead destination: the datagram
			// is dropped (the op pipeline fails down-peer operations with
			// ErrPeerUnreachable; stalling the sender here would deadlock
			// it against a peer that will never ack).
			return
		}
		// Momentary fullness resolves within an ack round trip; yield a
		// few times before escalating to real sleeps so a blocked sender
		// costs no CPU while still observing a Down transition within a
		// sleep quantum.
		if spin < 4 {
			spin++
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
	// DatagramsSent counts first transmissions only (here and in
	// writeBatch): retransmissions and standalone acks keep their own
	// counters, so it stays the coalescing cost model — datagrams the
	// protocol decided to send — rather than a wire-traffic tally.
	r.d.datagramsSent.Add(1)
	h.writeFrame(to, wb.b)
}

// trySeal attempts the non-writing half of send: stamp wb with the next
// sequence number and piggybacked ack and retain it in the
// retransmission queue, without blocking and without putting it on the
// wire — the batched send path seals a burst's frames one by one and
// ships them in a single vectorized write. ok reports the frame was
// sealed (the caller must now transmit wb.b exactly once, by any path);
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
	if len(p.inflight) >= p.cwnd {
		p.mu.Unlock()
		return false, true
	}
	p.nextSeq++
	seq := p.nextSeq
	ack := p.cumSeq
	if p.ackPending {
		p.ackPending = false
		r.d.acksPiggybacked.Add(1)
	}
	p.lastAck = ack
	b := wb.b
	b[0] = frameSeq
	binary.LittleEndian.PutUint16(b[1:3], uint16(h.rank))
	binary.LittleEndian.PutUint32(b[3:7], r.d.inc)
	binary.LittleEndian.PutUint32(b[7:11], seq)
	binary.LittleEndian.PutUint32(b[11:15], ack)
	wb.retain(1) // the retransmission queue's reference; released on ack
	rto := p.rto
	p.inflight = append(p.inflight, relEntry{
		seq:      seq,
		rto:      rto,
		deadline: clockNow() + rto,
		sentAt:   clockRefresh(),
		wb:       wb,
	})
	if len(p.inflight) > p.inflightHW {
		p.inflightHW = len(p.inflight)
	}
	p.mu.Unlock()
	return true, false
}

// sampleRTT folds one clean round-trip measurement into the pair's
// Jacobson/Karels estimator and re-derives the RTO and the standalone-ack
// pacing delay. Caller holds p.mu. Only never-retransmitted datagrams are
// sampled (Karn's rule — an ack for a retransmitted datagram is ambiguous
// about which transmission it answers).
func (p *peer) sampleRTT(rtt int64) {
	if rtt <= 0 {
		return
	}
	if p.srtt == 0 {
		p.srtt = rtt
		p.rttvar = rtt / 2
	} else {
		err := rtt - p.srtt
		p.srtt += err / 8
		if err < 0 {
			err = -err
		}
		p.rttvar += (err - p.rttvar) / 4
	}
	rto := p.srtt + 4*p.rttvar
	if rto < relRTOMin {
		rto = relRTOMin
	}
	if rto > relRTOMax {
		rto = relRTOMax
	}
	p.rto = rto
	ad := p.srtt / 4
	if ad < relAckDelayMin {
		ad = relAckDelayMin
	}
	if ad > relAckDelayMax {
		ad = relAckDelayMax
	}
	p.ackDelay = ad
}

// receive processes one sequenced frame addressed to ep, taking ownership
// of wb: the ack half completes our own send stream toward the frame's
// sender, the seq half delivers, buffers, or drops the inner frame.
// It runs on ep's socket reader goroutine.
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
	var ackNow bool
	var ackVal uint32

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
	// Ack half: release every in-flight datagram the peer has cumulatively
	// acknowledged (entries are in sequence order; numbers do not wrap).
	// The newest released entry that was never retransmitted yields an RTT
	// sample (Karn's rule), and a clean sample both updates the estimator
	// and grows the congestion window additively back toward the
	// configured maximum.
	n := 0
	cleanSentAt := int64(-1)
	for n < len(p.inflight) && p.inflight[n].seq <= ack {
		if p.inflight[n].attempts == 0 {
			cleanSentAt = p.inflight[n].sentAt
		}
		p.inflight[n].wb.release()
		n++
	}
	if n > 0 {
		rem := copy(p.inflight, p.inflight[n:])
		for i := rem; i < len(p.inflight); i++ {
			p.inflight[i] = relEntry{}
		}
		p.inflight = p.inflight[:rem]
		if ack > p.sendAcked {
			p.sendAcked = ack
		}
		if cleanSentAt >= 0 {
			p.sampleRTT(clockRefresh() - cleanSentAt)
			if p.cwnd < d.cfg.RelWindow {
				p.cwnd++
				d.windowGrows.Add(1)
				if p.cwnd == d.cfg.RelWindow {
					// Fully recovered to the configured ceiling — one event
					// per recovery episode, not one per additive step.
					d.emit(obs.EvWindowGrow, ep.rank, int(from), int64(p.cwnd), 0)
				}
			}
		}
		// An ack is a completion signal, not just window bookkeeping: for
		// value-less remote ops (puts) the transport ack IS the op's
		// completion, and a rank parked in Wait would otherwise only notice
		// at the park timeout. Wake it now. (notify is a coalescing
		// non-blocking send; safe under p.mu.)
		ep.notify()
	}

	switch {
	case seq == 0:
		// Standalone ack: nothing to deliver.
		p.mu.Unlock()
		wb.release()
		return
	case seq <= p.cumSeq:
		// Duplicate of something already delivered — the peer is
		// retransmitting, so our ack was lost or late. Re-ack immediately
		// to stop the storm.
		d.dupsDropped.Add(1)
		ackNow, ackVal = true, p.cumSeq
		p.lastAck = p.cumSeq
		p.ackPending = false
		p.mu.Unlock()
		wb.release()
	case seq == p.cumSeq+1:
		// In order: deliver, then drain any buffered successors.
		p.cumSeq = seq
		d.deliverParsed(ep, wb, wb.b[relHeaderLen:])
		for len(p.reorder) > 0 {
			next, ok := p.reorder[p.cumSeq+1]
			if !ok {
				break
			}
			delete(p.reorder, p.cumSeq+1)
			p.reorderBytes -= len(next.b)
			p.cumSeq++
			d.deliverParsed(ep, next, next.b[relHeaderLen:])
		}
		if !p.ackPending {
			p.ackPending = true
			p.ackSince = clockNow()
			p.ackHint.Store(true)
		}
		if p.cumSeq-p.lastAck >= relAckEvery {
			ackNow, ackVal = true, p.cumSeq
			p.lastAck = p.cumSeq
			p.ackPending = false
		}
		p.mu.Unlock()
	default:
		// Future sequence: a gap the sender will retransmit into.
		switch {
		case seq-p.cumSeq > uint32(d.cfg.RelWindow):
			// Beyond anything a well-behaved sender has in flight.
			d.outOfWindowDrops.Add(1)
			p.mu.Unlock()
			wb.release()
		default:
			if p.reorder == nil {
				p.reorder = make(map[uint32]*wireBuf)
			}
			if _, dup := p.reorder[seq]; dup {
				d.dupsDropped.Add(1)
				p.mu.Unlock()
				wb.release()
				break
			}
			// Byte budget: parking past Config.RelReorderBytes sheds the
			// parked frame furthest from delivery (highest sequence — the
			// sender retransmits it last, so shedding it costs the least
			// recovery time); if the incoming frame is itself the furthest,
			// it is the one shed. Shedding is loss the sender repairs; the
			// budget just refuses to let one peer's burst pin unbounded
			// arena memory.
			for p.reorderBytes+len(wb.b) > d.cfg.RelReorderBytes {
				var hiSeq uint32
				for s := range p.reorder {
					if s > hiSeq {
						hiSeq = s
					}
				}
				if hiSeq <= seq {
					break // incoming frame is the furthest: shed it instead
				}
				victim := p.reorder[hiSeq]
				delete(p.reorder, hiSeq)
				p.reorderBytes -= len(victim.b)
				p.shedRecent++
				d.shedFrames.Add(1)
				d.shedBytes.Add(int64(len(victim.b)))
				victim.release()
			}
			if p.reorderBytes+len(wb.b) > d.cfg.RelReorderBytes {
				p.shedRecent++
				d.shedFrames.Add(1)
				d.shedBytes.Add(int64(len(wb.b)))
				p.mu.Unlock()
				wb.release()
				break
			}
			p.reorder[seq] = wb
			p.reorderBytes += len(wb.b)
			if len(p.reorder) > p.reorderHW {
				p.reorderHW = len(p.reorder)
			}
			p.mu.Unlock()
		}
	}
	if ackNow {
		r.sendAck(h, int(from), ackVal)
	}
}

// flushAcks ships every pending ack on h's receive streams right away.
// It is the eager half of ack pacing, called from the owner's poll loop
// after a dispatch round: if delivering the inbound frames produced no
// reverse traffic to piggyback on (pure one-sided streams — puts, and
// the target side of gets), the ack leaves now, from the goroutine that
// is actually running, instead of waiting out the ticker's pacing delay.
// The ticker remains the backstop for ranks that stop polling. On
// oversubscribed hosts (more ranks than cores — every process-per-rank
// world on a small machine) the ticker goroutine can be starved past the
// sender's RTO by the very poll loop that just consumed the data;
// flushing here turns that retransmission storm back into one timely ack.
func (r *reliability) flushAcks(h *host) {
	for to := range h.peers {
		p := &h.peers[to]
		if !p.ackHint.Load() {
			continue
		}
		p.mu.Lock()
		if !p.ackPending {
			p.ackHint.Store(false)
			p.mu.Unlock()
			continue
		}
		ack := p.cumSeq
		p.ackPending = false
		p.lastAck = ack
		p.ackHint.Store(false)
		p.mu.Unlock()
		r.sendAck(h, to, ack)
	}
}

// sendAck ships a standalone cumulative acknowledgment (seq 0, no inner
// frame) h.rank→to. Standalone acks are unsequenced and unreliable: a lost
// ack is repaired by the next ack or by the sender's retransmission.
func (r *reliability) sendAck(h *host, to int, ack uint32) {
	d := r.d
	wb := d.arena.get(relHeaderLen)
	b := wb.b
	b[0] = frameSeq
	binary.LittleEndian.PutUint16(b[1:3], uint16(h.rank))
	binary.LittleEndian.PutUint32(b[3:7], d.inc)
	binary.LittleEndian.PutUint32(b[7:11], 0)
	binary.LittleEndian.PutUint32(b[11:15], ack)
	d.acksStandalone.Add(1)
	h.writeFrame(to, b)
	wb.release()
}

// run is the ticker goroutine: it keeps the cached clock fresh and makes
// one pass over every hosted peer row per tick.
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
// lock hold: retransmit every in-flight datagram whose deadline passed,
// flush a pending ack older than the RTT-paced delay, and — on a heartbeat
// boundary — ship the heartbeat, step the lifecycle through the round
// (silence thresholds, probe pacing) and decide whether the peer is still
// owed a join announcement, which it reports. Heartbeats, probes, joins
// and standalone acks are unsequenced and unreliable — losing one is
// exactly the signal the detector measures — and traverse the sender's
// real send path, fault shim included, so a rank whose sends are all
// dropped goes silent for everyone else.
//
// An expiry is the AIMD loss signal: the congestion window is halved down
// to the floor — at most once per in-flight window of loss (recoverSeq
// guard, so one burst of drops costs one decrease, not one per datagram)
// — and counted as an RTOExpiration. A datagram out of attempts means the
// peer is dead or partitioned: the lifecycle declares it down, pending
// operations fail with ErrPeerUnreachable through the Poll-time sweep, and
// the job decides what to do. Sustained receive-side shedding since the
// last pass marks the flooding sender Suspect: rank h.rank is being sent
// to faster than it can deliver, which is a health signal about `to`, not
// just an accounting line.
func (r *reliability) tickPeer(h *host, to int, now, round int64) (joining bool) {
	d := r.d
	p := &h.peers[to]
	beat := round != 0 && to != h.rank
	if beat && p.state.Load() != peerDown {
		d.heartbeatsSent.Add(1)
		h.writeFrame(to, h.hbFrame[:])
	}
	var fx effects
	ackDue := false
	var ack uint32

	p.mu.Lock()
	if p.lc.state != peerDown { // a parked queue must not retransmit into the partition
		// Deadlines are not sorted once backoff diverges, so scan the
		// whole (window-bounded) queue.
		exhausted, expired := false, false
		var exhaustedSeq uint32
		for i := range p.inflight {
			e := &p.inflight[i]
			if e.deadline > now {
				continue
			}
			expired = true
			e.attempts++
			if e.attempts > d.cfg.RelMaxAttempts {
				exhausted, exhaustedSeq = true, e.seq
				break
			}
			e.rto = min(e.rto*2, relRTOMax)
			e.deadline = now + e.rto
			// Refresh the piggybacked ack in place: the queue holds the
			// only live reference to these bytes after the initial
			// transmission.
			binary.LittleEndian.PutUint32(e.wb.b[11:15], p.cumSeq)
			p.lastAck = p.cumSeq
			p.ackPending = false
			d.retransmits.Add(1)
			h.writeFrame(to, e.wb.b)
		}
		if expired {
			d.rtoExpirations.Add(1)
			if p.sendAcked >= p.recoverSeq {
				// First loss signal since the last decrease took effect:
				// halve, then ignore further expiries until the peer acks
				// past everything currently assigned.
				old := p.cwnd
				p.cwnd = max(p.cwnd/2, d.cfg.RelWindowMin)
				p.recoverSeq = p.nextSeq
				d.windowShrinks.Add(1)
				d.emit(obs.EvWindowShrink, h.rank, to, int64(old), int64(p.cwnd))
			}
		}
		shedBurst := p.shedRecent >= relShedSuspect
		p.shedRecent = 0
		switch {
		case exhausted:
			d.retransmitExhausted.Add(1)
			d.emit(obs.EvRetransmitExhausted, h.rank, to, int64(exhaustedSeq), 0)
			h.transition(p, to, event{kind: evExhausted})
		case shedBurst:
			h.transition(p, to, event{kind: evShedBurst})
		}
		if !exhausted && p.ackPending && now-p.ackSince >= p.ackDelay {
			ackDue, ack = true, p.cumSeq
			p.ackPending = false
			p.lastAck = ack
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

	if ackDue {
		r.sendAck(h, to, ack)
	}
	if joining {
		d.joinsSent.Add(1)
		h.writeFrame(to, r.joinFrame)
	}
	h.sendProbes(to, fx)
	return joining
}

// releaseInflight returns the retransmission queue's buffers to the arena
// — the terminal-death half of a transition: the peer will never ack, so
// retaining them (and the window slots) would stall senders and leak
// arena capacity. Caller holds p.mu.
func (p *peer) releaseInflight() {
	for i := range p.inflight {
		p.inflight[i].wb.release()
		p.inflight[i] = relEntry{}
	}
	p.inflight = p.inflight[:0]
}

// rearm restarts a parked retransmission queue — the heal half of a
// transition. Every parked entry is reset to a fresh first attempt
// (backoff cleared, RTO from the estimator, deadline now) so the next
// ticker pass retransmits it immediately: the first post-heal exchange
// costs O(srtt), not the clamped RTO the entries had backed off to when
// the partition hit. recoverSeq moves past everything parked so those
// forced expiries are not misread as fresh congestion, and the window
// restarts from the AIMD floor — the path just proved it can vanish; probe
// conservatively. Estimator state (srtt/rttvar/rto) survives: the
// pre-partition path is the best guess for the post-heal one. The receive
// half needs nothing: cumSeq/reorder kept parity with everything actually
// delivered. Caller holds p.mu.
//
// Note the delivered-late consequence: parked frames whose operations
// were already failed by the down sweep still retransmit and execute at
// the receiver after the heal. That is the same at-most-once-per-seq,
// maybe-after-failure semantics a deadline expiry already has — the
// completion cookie died with the op, so the late ack is a counted
// badCookieDrop, not a double completion.
func (p *peer) rearm(windowMin int) {
	now := clockNow()
	for i := range p.inflight {
		e := &p.inflight[i]
		e.attempts = 0
		e.rto = p.rto
		e.deadline = now
	}
	p.cwnd = windowMin
	p.recoverSeq = p.nextSeq
	p.bpBlocked = false
}

// reset returns both streams to their just-constructed state: the send
// stream (sequence counter, retransmission queue, RTT/RTO estimator, AIMD
// window — full: shrink on evidence of loss, like TCP's initial cwnd being
// generous on a known-short path) and the receive stream (cumulative
// sequence, reorder buffer, ack pacing). It seeds a new record, and it is
// the readmission half of a transition: the restarted peer starts its
// streams from scratch, so any surviving state on our side — a cumSeq the
// new incarnation never sent, an estimator tuned to the dead process —
// would silently dup-drop or misclock the fresh streams. Both sides reset
// coherently: the joiner's state is fresh by construction, the survivor
// resets here. Caller holds p.mu (or is the only one who can reach p).
func (p *peer) reset(window int) {
	p.releaseInflight()
	for seq, wb := range p.reorder {
		wb.release()
		delete(p.reorder, seq)
	}
	p.streams = streams{
		inflight: p.inflight,
		reorder:  p.reorder,
		rto:      relRTO,
		cwnd:     window,
		ackDelay: relAckDelay,
	}
	p.ackHint.Store(false)
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

// drainState releases every buffer still held by retransmission queues and
// reorder buffers. Called after the ticker and the socket readers have
// stopped, so no concurrent access remains.
func (r *reliability) drainState() {
	for _, h := range r.d.udp.hosts {
		for i := range h.peers {
			p := &h.peers[i]
			p.mu.Lock()
			p.reset(r.d.cfg.RelWindow)
			p.mu.Unlock()
		}
	}
}
