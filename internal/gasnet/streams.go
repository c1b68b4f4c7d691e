package gasnet

import "math/bits"

// The sequenced streams of a peer record as one pure state machine, the
// reliability twin of lifecycle.go: a streams value is the send stream
// local→peer and the receive stream peer→local, a streamEvent is something
// that happened to them (a frame to seal, an ack or a frame from the peer,
// a ticker pass, a heal, a readmission), and step maps (state, event, now)
// to (state, effects). step mutates only the record it is given and
// touches no socket, clock, arena, atomic or domain: the clock arrives as
// an argument, frame buffers are opaque pointers it only moves between
// queues, and everything it decides to do to the world comes back as a
// streamFx. The applier (host.stepStreams, reliable.go) is the only code
// that acts on one; TestStreamsModel and FuzzStreams drive the same
// function through every drop, duplicate and reorder schedule of a model
// wire. DESIGN.md §8.2 has the table.
//
// Loss recovery takes one round trip, not a timer. The receiver answers
// every out-of-order or duplicate frame — and the frame that fills a gap —
// with an immediate standalone ack carrying a SACK bitmap of what it holds
// parked beyond the gap; the sender retransmits an un-SACKed frame with
// three SACKed frames above it at once, from the goroutine that read the
// ack. The retransmission timer is the backstop for losses nothing
// follows (the tail of a burst, a lost retransmission): it fires only
// after a full RTO without ack progress, and it resends only the oldest
// unacknowledged frame — except after a heal, when nothing parked across the
// partition is presumed delivered and the parked frames go again rtxMax at a
// time, on the timer and on every advancing ack.

// sackLen is the SACK trailer a standalone ack (seq 0) may carry: bit i of
// the u64 (LE) reports the receiver holds seq cum+2+i parked. Data frames
// never carry one.
const sackLen = 8

// rtxMax bounds the retransmissions one step hands back: the default window
// floor (relWindowMin), where a heal restarts the window. A step that finds
// more losses leaves the rest to the next ack, which finds them again.
const rtxMax = 8

// relEntry is one unacknowledged frame on the send stream.
type relEntry struct {
	seq      uint32
	attempts int32  // retransmissions since sealed or re-armed: the budget
	episode  uint32 // recovery episode of its last retransmission
	retx     bool   // retransmitted or parked across a partition: its ack is no RTT sample (Karn)
	sacked   bool   // the peer reports it parked
	sentAt   int64  // first transmission, for RTT sampling
	wb       *wireBuf
}

// parkedFrame is one slot of the receive side's reorder ring.
type parkedFrame struct {
	wb   *wireBuf
	size int
}

// streams is the sequenced-stream half of a peer record.
type streams struct {
	// cfg is the normalized Config whose Rel* bounds the streams run under:
	// RelWindow (the window's ceiling, the receive window and the reorder
	// ring's size), RelWindowMin, RelMaxAttempts, RelReorderBytes.
	cfg *Config

	// Send stream local→peer. inflight holds exactly the seqs
	// sendAcked+1 .. nextSeq, in order.
	nextSeq   uint32 // last assigned sequence number (first assigned is 1)
	sendAcked uint32 // highest cumulative ack the peer has sent us
	inflight  []relEntry
	nsacked   int // entries of inflight marked sacked

	// Jacobson/Karels estimator (srtt == 0: no sample yet) and the one
	// retransmission timer: rtoAt is when the head is presumed lost, re-armed
	// on every ack that makes progress; backoff doubles the RTO per expiry
	// without progress.
	srtt, rttvar, rto int64
	rtoAt             int64
	backoff           uint8

	// Congestion window in [RelWindowMin, RelWindow]: multiplicative
	// decrease, then slow start. A recovery episode is one loss event: it
	// starts with the one halving, and it lasts until the peer acks past
	// recoverSeq (nextSeq when it started). Every clean ack grows the window
	// by the frames it releases, so a window halved by an isolated loss is
	// whole again about one round trip after the episode ends; only loss in
	// every round trip keeps it down. rearmed marks a heal's episode, in
	// which every parked frame is presumed lost.
	cwnd       int
	recoverSeq uint32
	episode    uint32
	rearmed    bool

	// Receive stream peer→local. parked is a ring indexed by seq modulo
	// RelWindow (allocated on first use): every parked seq lies in
	// cumSeq+2 .. cumSeq+RelWindow, so slots never collide.
	cumSeq      uint32 // highest contiguously received
	lastAck     uint32 // last cumulative ack shipped to peer
	parked      []parkedFrame
	nparked     int
	parkedBytes int
	shedRecent  int // frames shed since the last ticker pass
	ackPending  bool
	ackSince    int64 // when ackPending was set
	ackDelay    int64 // RTT-paced standalone-ack delay, ns

	// bpBlocked tracks whether the last admission attempt on this pair hit
	// a full window, so the ops plane sees backpressure onset/relief as
	// edge events (backpressure.go).
	bpBlocked bool

	// Frames a step hands over in order, drained by the applier before the
	// lock is dropped: ready to deliver (the parked successors of a frame
	// delivered in order), and spent (acked, duplicate, shed, reset) for
	// release.
	ready []*wireBuf
	spent []*wireBuf
}

// streamEventKind names what happened to a record's streams.
type streamEventKind uint8

const (
	sevSend  streamEventKind = iota // seal wb onto the send stream
	sevAck                          // a standalone ack from the peer: cum, and its SACK bitmap
	sevData                         // the peer's frame seq (wb, size bytes) arrived, piggybacking ack cum
	sevTick                         // a ticker pass: RTO, ack pacing, shed bursts
	sevFlush                        // the owner polled: ship a pending ack now
	sevRearm                        // heal: restart the parked send stream
	sevReset                        // readmission, terminal death, teardown: just-constructed
)

type streamEvent struct {
	kind streamEventKind
	seq  uint32
	cum  uint32
	sack uint64
	wb   *wireBuf
	size int
}

// sfx is the set of things a step asks the applier to do or count.
type sfx uint16

const (
	sfxFull        sfx = 1 << iota // Send: the window is full, nothing sealed
	sfxPiggyback                   // Send: a pending ack rode on the frame
	sfxForged                      // Ack: names a seq never sent; nothing done (a decode error)
	sfxReleased                    // Ack: frames released into spent; wake the owner
	sfxDeliver                     // Data: deliver the frame, then the ready successors
	sfxArmed                       // Data: an ack became pending (the applier reads ackPending itself)
	sfxAck                         // ship a standalone ack (fx.ack, fx.sack)
	sfxDup                         // Data: a duplicate, dropped
	sfxOutOfWindow                 // Data: beyond the receive window, dropped
	sfxRTO                         // Tick: the retransmission timer expired
	sfxExhausted                   // Tick: the head (fx.seq) ran out of attempts
	sfxShedBurst                   // Tick: sustained shedding since the last pass
)

// streamFx is a step's effects: fixed-size, so the hot path does not
// allocate.
type streamFx struct {
	do    sfx
	nrtx  uint8  // frames in rtx to put on the wire again: ack-driven, or the timer's (sfxRTO)
	seq   uint32 // Send: the seq taken; Exhausted: the head's
	ack   uint32 // Send: the cumulative ack to stamp; sfxAck: the one to ship
	shed  int32  // frames shed by the reorder budget, and their bytes
	sack  uint64 // sfxAck: the SACK bitmap
	grown int32  // the window after a clean ack grew it; 0 if none
	was   int32  // the window a new episode halved; 0 if none
	shedB int32
	rtx   [rtxMax]*wireBuf
}

// step is the transition function.
func (s *streams) step(ev streamEvent, now int64) (fx streamFx) {
	switch ev.kind {
	case sevSend:
		s.seal(ev.wb, now, &fx)
	case sevAck:
		s.acked(ev.cum, ev.sack, true, now, &fx)
	case sevData:
		// A data frame is an ack first; one that names a seq never sent is
		// dropped whole.
		if s.acked(ev.cum, 0, false, now, &fx); fx.do&sfxForged != 0 {
			s.spent = append(s.spent, ev.wb)
		} else {
			s.data(ev.seq, ev.wb, ev.size, now, &fx)
		}
	case sevTick:
		s.tick(now, &fx)
	case sevFlush:
		if s.ackPending {
			s.ackNow(&fx)
		}
	case sevRearm:
		// Heal: the parked entries keep their sequence numbers — the
		// receiver's cumulative stream still expects them — and restart as
		// fresh attempts, due now. They waited out a partition, so none of
		// their acks is an RTT sample. The window restarts from the floor as
		// a new episode: the path just proved it can vanish. The episode
		// presumes every parked frame the peer has not reported holding lost
		// (goBack): the next tick and every advancing ack resend the next
		// rtxMax of them. The peer's reorder buffer outlives the partition,
		// and so do its SACK reports.
		for i := range s.inflight {
			e := &s.inflight[i]
			e.attempts, e.retx, e.episode = 0, true, 0
		}
		s.backoff, s.rtoAt = 0, now
		s.cwnd = s.cfg.RelWindowMin
		s.recoverSeq = s.nextSeq
		s.episode++
		s.rearmed = true
		s.bpBlocked = false
	case sevReset:
		for _, e := range s.inflight {
			s.spent = append(s.spent, e.wb)
		}
		for _, f := range s.parked {
			if f.wb != nil {
				s.spent = append(s.spent, f.wb)
			}
		}
		clear(s.inflight)
		clear(s.parked)
		*s = streams{
			cfg:      s.cfg,
			inflight: s.inflight[:0],
			parked:   s.parked,
			ready:    s.ready,
			spent:    s.spent,
			rto:      relRTO,
			cwnd:     s.cfg.RelWindow,
			ackDelay: relAckDelay,
		}
	}
	return fx
}

// seal assigns the next sequence number to wb and retains it in flight,
// piggybacking the receive stream's cumulative ack.
func (s *streams) seal(wb *wireBuf, now int64, fx *streamFx) {
	if len(s.inflight) >= s.cwnd {
		fx.do |= sfxFull
		return
	}
	if len(s.inflight) == 0 {
		s.rtoAt = now + s.timeout()
	}
	s.nextSeq++
	s.inflight = append(s.inflight, relEntry{seq: s.nextSeq, sentAt: now, wb: wb})
	fx.seq, fx.ack = s.nextSeq, s.cumSeq
	if s.ackPending {
		s.ackPending = false
		fx.do |= sfxPiggyback
	}
	s.lastAck = s.cumSeq
}

// acked processes the ack half of a frame from the peer. Only a standalone
// ack carries SACK information: its bitmap, zero included, is the peer's
// whole parked set.
func (s *streams) acked(cum uint32, sack uint64, standalone bool, now int64, fx *streamFx) {
	// Wire input is untrusted: an ack for a seq never sent would release,
	// and a SACK bit for one would skip, frames the peer never saw.
	if cum > s.nextSeq || sack != 0 && uint64(cum)+2+uint64(63-bits.LeadingZeros64(sack)) > uint64(s.nextSeq) {
		fx.do |= sfxForged
		return
	}
	if cum < s.sendAcked {
		return // overtaken by a newer ack
	}
	advanced := cum > s.sendAcked
	if advanced {
		n, dirty := 0, false
		var sentAt int64
		for n < len(s.inflight) && s.inflight[n].seq <= cum {
			e := &s.inflight[n]
			dirty = dirty || e.retx
			if e.sacked {
				s.nsacked--
			}
			sentAt = e.sentAt
			s.spent = append(s.spent, e.wb)
			n++
		}
		rem := copy(s.inflight, s.inflight[n:])
		clear(s.inflight[rem:])
		s.inflight = s.inflight[:rem]
		s.sendAcked = cum
		fx.do |= sfxReleased
		// Karn: an ack that releases any retransmitted frame is ambiguous
		// about which transmission it answers, so it is no sample — and
		// does not grow the window. A clean one grows it by the frames it
		// released (slow start), however many acks the peer folded into one.
		if !dirty {
			s.sampleRTT(now - sentAt)
			if s.cwnd < s.cfg.RelWindow {
				s.cwnd = min(s.cwnd+n, s.cfg.RelWindow)
				fx.grown = int32(s.cwnd)
			}
		}
		// Progress re-arms the timer for the new head.
		s.backoff, s.rtoAt = 0, 0
		if rem > 0 {
			s.rtoAt = now + s.timeout()
			// A head the peer reported parked, yet acked only up to: the peer
			// shed it under its reorder budget. It is lost like any other.
			if s.inflight[0].sacked {
				s.inflight[0].sacked = false
				s.nsacked--
			}
		}
	}
	if standalone {
		// Bit i names inflight[i+1] (inflight[0] is cum+1, the gap). A newer
		// cumulative ack brings the peer's whole parked set; one at the same
		// cum can only add to it, unless it was overtaken on the wire.
		for i := 1; i < len(s.inflight) && i <= 64; i++ {
			e := &s.inflight[i]
			if bit := sack&(1<<(i-1)) != 0; bit != e.sacked && (bit || advanced) {
				e.sacked = bit
				if bit {
					s.nsacked++
				} else {
					s.nsacked--
				}
			}
		}
	}
	s.recover(advanced, fx)
}

// recover retransmits what the acks say is lost: a frame with three SACKed
// frames above it, and — the partial ack of a recovery episode — the new
// head, which was sent before the loss was detected and so, on an
// order-preserving wire, would have arrived by now (after a heal, the next
// parked frames with it). The head is never SACKed (acked marks it
// lost). Each frame goes again at most once per episode; the first loss of
// an episode halves the window.
func (s *streams) recover(advanced bool, fx *streamFx) {
	switch {
	case !advanced || s.sendAcked >= s.recoverSeq || len(s.inflight) == 0:
	case s.rearmed:
		s.goBack(fx)
	case s.inflight[0].episode != s.episode:
		s.resend(&s.inflight[0], fx)
	}
	for i, above := 0, s.nsacked; i < len(s.inflight) && above >= 3; i++ {
		e := &s.inflight[i]
		if e.sacked {
			above--
			continue
		}
		if s.sendAcked >= s.recoverSeq {
			s.startEpisode(fx)
		}
		if e.episode != s.episode && !s.resend(e, fx) {
			return
		}
	}
}

// startEpisode is the one multiplicative decrease of a loss event.
func (s *streams) startEpisode(fx *streamFx) {
	s.episode++
	s.recoverSeq = s.nextSeq
	s.rearmed = false
	fx.was = int32(s.cwnd)
	s.cwnd = max(s.cwnd/2, s.cfg.RelWindowMin)
}

// goBack resends, up to the step's capacity, the frames a heal parked that
// no ack has reported held and this episode has not resent yet.
func (s *streams) goBack(fx *streamFx) {
	for i := range s.inflight {
		if e := &s.inflight[i]; e.seq > s.recoverSeq || !e.sacked && e.episode != s.episode && !s.resend(e, fx) {
			return
		}
	}
}

// resend hands e back for retransmission, reporting false when this step
// has no room left for it.
func (s *streams) resend(e *relEntry, fx *streamFx) bool {
	if int(fx.nrtx) == len(fx.rtx) {
		return false
	}
	e.attempts++
	e.retx = true
	e.episode = s.episode
	fx.rtx[fx.nrtx] = e.wb
	fx.nrtx++
	return true
}

// tick is the ticker's pass: the retransmission timer, ack pacing, and the
// shed-burst verdict.
func (s *streams) tick(now int64, fx *streamFx) {
	if s.shedRecent >= relShedSuspect {
		fx.do |= sfxShedBurst
	}
	s.shedRecent = 0
	if len(s.inflight) > 0 && now >= s.rtoAt {
		fx.do |= sfxRTO
		e := &s.inflight[0]
		if int(e.attempts)+1 > s.cfg.RelMaxAttempts {
			fx.do |= sfxExhausted
			fx.seq = e.seq
			return
		}
		if s.sendAcked >= s.recoverSeq {
			s.startEpisode(fx)
		}
		s.resend(e, fx)
		if s.rearmed {
			s.goBack(fx)
		}
		if s.timeout() < relRTOMax {
			s.backoff++ // no further once clamped
		}
		s.rtoAt = now + s.timeout()
	}
	if s.ackPending && now-s.ackSince >= s.ackDelay {
		s.ackNow(fx)
	}
}

// data processes the seq half of a frame from the peer, taking ownership
// of its buffer.
func (s *streams) data(seq uint32, wb *wireBuf, size int, now int64, fx *streamFx) {
	w := uint32(s.cfg.RelWindow)
	switch {
	case seq <= s.cumSeq:
		// Already delivered: the peer is retransmitting, so our ack was lost
		// or late. Answer at once.
		s.spent = append(s.spent, wb)
		fx.do |= sfxDup
		s.ackNow(fx)
	case seq == s.cumSeq+1:
		gap := s.nparked > 0
		s.cumSeq = seq
		fx.do |= sfxDeliver
		for s.nparked > 0 {
			f := &s.parked[(s.cumSeq+1)%w]
			if f.wb == nil {
				break
			}
			s.ready = append(s.ready, f.wb)
			s.nparked--
			s.parkedBytes -= f.size
			*f = parkedFrame{}
			s.cumSeq++
		}
		switch {
		case gap || s.cumSeq-s.lastAck >= relAckEvery:
			// A filled gap is news the sender is waiting on; a one-way stream
			// needs its window reopened without waiting out the delay.
			s.ackNow(fx)
		case !s.ackPending:
			s.ackPending, s.ackSince = true, now
			fx.do |= sfxArmed
		}
	case seq-s.cumSeq > w:
		s.spent = append(s.spent, wb)
		fx.do |= sfxOutOfWindow
	default:
		if s.parked == nil {
			s.parked = make([]parkedFrame, w)
		}
		if s.parked[seq%w].wb != nil {
			s.spent = append(s.spent, wb)
			fx.do |= sfxDup
		} else {
			s.park(seq, wb, size, fx)
		}
		s.ackNow(fx)
	}
}

// park buffers an out-of-order frame under the byte budget: parking past
// it sheds the parked frame furthest from delivery (the one the sender
// repairs last), or the incoming frame when it is itself the furthest.
// Shedding is loss the sender repairs; the budget refuses to let one
// peer's burst pin unbounded memory.
func (s *streams) park(seq uint32, wb *wireBuf, size int, fx *streamFx) {
	w := uint32(s.cfg.RelWindow)
	for s.parkedBytes+size > s.cfg.RelReorderBytes && s.nparked > 0 {
		hi := s.cumSeq + w
		for s.parked[hi%w].wb == nil {
			hi--
		}
		if hi < seq {
			break
		}
		f := &s.parked[hi%w]
		s.shedOne(f.wb, f.size, fx)
		s.nparked--
		s.parkedBytes -= f.size
		*f = parkedFrame{}
	}
	if s.parkedBytes+size > s.cfg.RelReorderBytes {
		s.shedOne(wb, size, fx)
		return
	}
	s.parked[seq%w] = parkedFrame{wb, size}
	s.nparked++
	s.parkedBytes += size
}

func (s *streams) shedOne(wb *wireBuf, size int, fx *streamFx) {
	s.spent = append(s.spent, wb)
	s.shedRecent++
	fx.shed++
	fx.shedB += int32(size)
}

// ackNow ships the receive stream's state at once: the cumulative ack and
// the SACK bitmap of what is parked beyond the gap.
func (s *streams) ackNow(fx *streamFx) {
	fx.do |= sfxAck
	fx.ack = s.cumSeq
	fx.sack = 0
	if s.nparked > 0 {
		w := uint32(s.cfg.RelWindow)
		for i := uint32(0); i < 64 && i+2 <= w; i++ {
			if s.parked[(s.cumSeq+2+i)%w].wb != nil {
				fx.sack |= 1 << i
			}
		}
	}
	s.ackPending = false
	s.lastAck = s.cumSeq
}

// timeout is the retransmission timer's period: the estimator's RTO,
// doubled per expiry without progress, clamped to relRTOMax.
func (s *streams) timeout() int64 {
	return min(s.rto<<s.backoff, relRTOMax)
}

// sampleRTT folds one clean round-trip measurement into the Jacobson/Karels
// estimator and re-derives the RTO and the standalone-ack pacing delay.
func (s *streams) sampleRTT(rtt int64) {
	if rtt <= 0 {
		return
	}
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		err := rtt - s.srtt
		s.srtt += err / 8
		if err < 0 {
			err = -err
		}
		s.rttvar += (err - s.rttvar) / 4
	}
	s.rto = min(max(s.srtt+4*s.rttvar, relRTOMin), relRTOMax)
	s.ackDelay = min(max(s.srtt/4, relAckDelayMin), relAckDelayMax)
}
