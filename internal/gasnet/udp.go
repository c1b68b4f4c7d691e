package gasnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
)

// The UDP conduit carries active messages over real UDP datagrams on the
// loopback interface, in two world shapes. In an in-process world every
// rank shares one address space and one node, as in the paper's
// single-node UDP runs (§IV): RMA and atomic data movement is a direct
// load/store on the target segment and completes synchronously, and only
// the active messages (collective tokens, RPCs and their acknowledgments)
// round-trip through the kernel. A closure-carrying message (a user RPC
// body, a remote completion) cannot be serialized onto a socket in Go; in
// this shape it is handed over through the in-memory queue and counted
// (Stats.InMemFallbacks). In a multiproc world (Config.Multiproc) each
// process hosts one rank, every other rank is a remote node, and every
// remote operation crosses the wire; closure messages to another rank are
// refused before injection (DESIGN.md).
//
// Every datagram starts with a one-byte frame tag. frameBatch carries the
// wire messages a sender staged for one destination (see coalescer and
// DESIGN.md §7.3) — every payload datagram the senders in this file emit,
// one message or many — packed as:
//
//	[frameBatch u8] [count u16 LE] count × { [len u32 LE] [encodeMsg bytes] }
//
// frameSingle, one unframed message, is still accepted on receive.
// Neither travels bare: frameSeq wraps each in the reliability layer's
// sequenced header (see reliable.go), and a bare frameSingle/frameBatch
// arriving on a socket is counted and dropped — it would bypass the
// incarnation gate, duplicate suppression and sequencing. The reader
// validates a delivered frame and pushes it whole, as one inbox entry
// holding the datagram's pooled buffer; the owner decodes its messages in
// place, in wire order, when it polls.
//
// The receive path never trusts the kernel-delivered bytes: truncated or
// corrupt frames of any kind are counted (Stats.DecodeErrors) and dropped,
// exercised by FuzzDecodeDatagram.

// maxUDPPayload bounds the wire size of one datagram. Collective tokens
// and protocol messages are far below this; oversized payloads are a
// programming error on this conduit.
const maxUDPPayload = 60 << 10

// Datagram frame tags.
const (
	frameSingle = 0x01
	frameBatch  = 0x02
	frameSeq    = 0x03 // reliability framing; see reliable.go
	frameHB     = 0x04 // liveness heartbeat; see liveness.go
	frameBye    = 0x05 // graceful departure (multiproc worlds); see sendBye
	frameJoin   = 0x06 // incarnation announcement (readmission); see liveness.go
	frameProbe  = 0x07 // partition probe/ack (healing); see liveness.go
)

// byeFrameLen is the size of a departure frame:
// [frameBye u8][from u16 LE][incarnation u32 LE]. A peer that announces
// departure is marked Down immediately — a process that exits cleanly
// becomes a Down peer at the speed of one datagram, not after DownAfter
// of silence. The incarnation stamp keeps a late bye from a dead
// incarnation from burying its restarted successor.
const byeFrameLen = 7

// batchHeaderLen is the fixed prefix of a frameBatch datagram; each packed
// message adds a 4-byte length prefix on top of its encoding.
const batchHeaderLen = 1 + 2

// recvBatchSize is how many datagrams one reader wakeup drains in a
// single recvmmsg (each into its own pooled buffer). It bounds the
// pooled memory a parked reader pins at recvBatchSize × bufClassLarge
// per socket.
const recvBatchSize = 8

// batchFrame is one staged datagram in a vectorized send: the wire
// bytes, the destination address, and the pooled buffer owning the bytes
// (nil for frames, like fault-shim holdback releases, whose bytes have
// no pooled owner). The stager holds wb's reference until the batch is
// written; writers must not retain any frame's bytes past the call.
type batchFrame struct {
	b    []byte
	addr netip.AddrPort
	wb   *wireBuf
}

// batchConn extends the send path's packetConn with the vectorized read
// the conduit's reader goroutines use. Constructed per socket by
// newBatchConn: sendmmsg/recvmmsg on capable Linux platforms, the
// sequential seqConn elsewhere. The fault shim wraps only the write side
// — faults are send-side injection, so the reader always consumes the
// unwrapped batchConn.
type batchConn interface {
	packetConn
	// ReadBatch fills views with up to len(views) datagrams, recording
	// each datagram's byte count in sizes, and returns how many arrived.
	// It blocks until at least one datagram is available.
	ReadBatch(views [][]byte, sizes []int) (int, error)
}

// seqConn is the portable batch adapter: one write or read system call
// per frame behind the same interface the mmsg path implements — the
// fallback for platforms without sendmmsg/recvmmsg.
type seqConn struct{ *net.UDPConn }

func (c seqConn) WriteBatch(frames []batchFrame) error {
	for _, fr := range frames {
		if _, err := c.WriteToUDPAddrPort(fr.b, fr.addr); err != nil {
			return err
		}
	}
	return nil
}

func (c seqConn) ReadBatch(views [][]byte, sizes []int) (int, error) {
	n, _, err := c.ReadFromUDPAddrPort(views[0])
	if err != nil {
		return 0, err
	}
	sizes[0] = n
	return 1, nil
}

// host is one rank this process hosts: its socket, its down-epoch and its
// row of peer records — everything the process keeps per hosted rank. An
// in-process world has one per rank, a multiproc world exactly one (Self);
// every loop over "our" ranks is a loop over udpTransport.hosts, and a
// send "from" a rank hosted elsewhere is a bug the nil Endpoint.host makes
// loud.
type host struct {
	rank int
	ep   *Endpoint
	conn *net.UDPConn
	// send is the write path: always the fault shim (fault.go) wrapping
	// the batch-capable socket adapter — idle it forwards behind one
	// atomic load, armed it is the deterministic network model. read is
	// the unwrapped adapter (the shim injects on the send side only).
	send *faultConn
	read batchConn

	// epoch increments whenever some peer of this rank is declared down;
	// the rank goroutine compares it against its last-seen value in Poll
	// and sweeps its op table on change (domain.go).
	epoch atomic.Uint32

	// peers[r] is this rank's record of rank r (reliable.go), its own
	// slot included: self-sends loop through the socket like any other.
	peers []peer

	// hbFrame is this rank's prebuilt heartbeat, and the prefix of its
	// probes and goodbyes.
	hbFrame [hbFrameLen]byte

	// co stages this rank's outgoing wire messages until they leave.
	co coalescer

	// rx is the owner's scratch message: each message of a received frame
	// is decoded into it in place and dispatched from it (expandRest).
	// nestRx[d] is the slot of a dispatch round nested d+1 deep, so a
	// nested round never rewrites the message an enclosing handler is
	// running on. Owner goroutine only; cleared after each frame.
	rx     Msg
	nestRx []*Msg

	// frame walks the received frame being expanded: frameLeft messages
	// remain, from frameFrom, aliasing frameBuf. It lives here, not in
	// expandFrame, because a handler that polls dispatches the rest of
	// the frame first (Endpoint.dispatchRest). Owner goroutine only.
	frame     frameWalk
	frameLeft int
	frameFrom int32
	frameBuf  *wireBuf
}

// udpTransport is the per-domain socket state for the UDP conduit.
type udpTransport struct {
	hosts []*host
	// addrs holds every rank's socket address — world-wide, hosted here or
	// not — behind an atomic pointer: readmission (liveness.go) rewrites a
	// restarted peer's slot — it bound a fresh socket — while send paths
	// are concurrently loading it. Access through addrOf/setAddr.
	addrs []atomic.Pointer[netip.AddrPort]
	wg    sync.WaitGroup

	// rbufErr records the first SetReadBuffer failure (logged once at
	// init, surfaced via Domain.RbufErr): without the enlarged kernel
	// buffer, loopback bursts drop datagrams, and this is the breadcrumb
	// that makes such environments diagnosable.
	rbufErr error

	// replies has bit id set for every handler id whose messages are
	// replies (hPutAck, the cumulative reply; hGetRep; hAmoRep; and
	// Domain.RegisterReplyHandler's): a frame of nothing else is acked
	// lazily (reliable.go, ackLazy). The readers load it per frame;
	// registration may race with early traffic. MaxHandlers ids fit the
	// word.
	replies atomic.Uint64

	mu     sync.Mutex
	closed bool
}

// addrOf returns rank to's current socket address.
func (tr *udpTransport) addrOf(to int) netip.AddrPort { return *tr.addrs[to].Load() }

// setAddr installs a new socket address for rank to — at construction,
// and again when a restarted peer announces its fresh socket.
func (tr *udpTransport) setAddr(to int, a netip.AddrPort) { tr.addrs[to].Store(&a) }

// initUDP builds a host for every rank this process hosts, then the
// reliability ticker, then starts one reader goroutine per hosted socket.
// An in-process world hosts every rank and binds a fresh loopback socket
// for each; a multiproc world hosts only Self, on the socket the bootstrap
// exchange (internal/boot) bound before publishing its address, and learns
// every rank's address from Config.Peers. Everything above the socket is
// the same in both — what a multiproc world changes is the locality model
// (Config.NodeOf). newConn picks the socket adapter (newBatchConn outside
// tests).
func (d *Domain) initUDP(newConn func(*net.UDPConn, *Domain) batchConn) error {
	n := d.cfg.Ranks
	tr := &udpTransport{addrs: make([]atomic.Pointer[netip.AddrPort], n)}
	tr.replies.Store(1<<hPutAck | 1<<hGetRep | 1<<hAmoRep)
	d.udp = tr
	for r, a := range d.cfg.Peers {
		tr.setAddr(r, a)
	}
	var fault FaultConfig
	if d.cfg.Fault != nil {
		fault = *d.cfg.Fault
	}
	// Everyone registered under the same epoch at the initial barrier, so
	// the whole world shares one incarnation until somebody restarts — but
	// a restarted rank cannot assume anything about who else restarted
	// while it was gone: every peer incarnation starts unknown (0) and is
	// adopted from the first frame heard.
	hb := int64(d.cfg.HeartbeatEvery)
	fresh := lifecycle{
		inc:          d.inc,
		suspectAfter: roundsFor(int64(d.cfg.SuspectAfter), hb),
		downAfter:    roundsFor(int64(d.cfg.DownAfter), hb),
	}
	fresh.downAfter = max(fresh.downAfter, fresh.suspectAfter+1)
	if d.cfg.Rejoin {
		fresh.inc = 0
	}
	for r := 0; r < n; r++ {
		if d.cfg.Multiproc && r != d.cfg.Self {
			continue // another process hosts it
		}
		conn := d.cfg.SelfConn
		if !d.cfg.Multiproc {
			var err error
			conn, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				tr.close()
				return fmt.Errorf("gasnet: udp conduit: %w", err)
			}
			tr.setAddr(r, conn.LocalAddr().(*net.UDPAddr).AddrPort())
		}
		// A generous receive buffer: collective fan-ins burst many small
		// datagrams at one socket — in a multiproc world the whole world's
		// traffic toward this rank — and loopback UDP drops on overflow.
		if err := conn.SetReadBuffer(4 << 20); err != nil && tr.rbufErr == nil {
			tr.rbufErr = err
			log.Printf("gasnet: udp conduit: SetReadBuffer(4MiB) failed (%v); "+
				"bursty collectives may drop datagrams on this host", err)
		}
		bc := newConn(conn, d)
		h := &host{
			rank: r, ep: d.eps[r], conn: conn, read: bc,
			// The fault shim is ALWAYS interposed: idle it costs one atomic
			// load per write, and it is what lets tests and scenarios arm
			// faults, partitions, and latency mid-run (SetFault et al.).
			send:    newFaultConn(bc, fault, r, d),
			peers:   make([]peer, n),
			hbFrame: hbFrameFor(r, d.inc),
		}
		h.co.bufs = make([]*wireBuf, n)
		h.co.counts = make([]int, n)
		for i := range h.peers {
			p := &h.peers[i]
			p.lc = fresh
			if i == r {
				p.lc.inc = d.inc // our own frames are current exactly under our own incarnation
			}
			p.inc.Store(p.lc.inc)
			p.cfg = &d.cfg
			p.step(streamEvent{kind: sevReset}, 0)
		}
		d.eps[r].host = h
		tr.hosts = append(tr.hosts, h)
	}
	if err := d.armScenarioFromEnv(); err != nil {
		tr.close()
		return err
	}
	// Every row is in place before the ticker and the readers start: both
	// step peer records from their first iteration.
	d.rel = newReliability(d, clockRefresh())
	go d.rel.run()
	for _, h := range tr.hosts {
		d.startReader(tr, h.ep, h.read)
	}
	return nil
}

// startReader starts the reader goroutine serving one socket, decoding its
// datagrams into the owning endpoint's inbox.
func (d *Domain) startReader(tr *udpTransport, ep *Endpoint, bc batchConn) {
	tr.wg.Add(1)
	go func() {
		defer tr.wg.Done()
		// One ReadBatch drains up to recvBatchSize queued datagrams per
		// wakeup, each read straight into its own pooled buffer: the
		// frame's inbox entry holds the buffer until the owner has
		// dispatched its messages, so the steady-state receive path
		// allocates nothing
		// — and a burst of frames costs one recvmmsg instead of one
		// recvfrom per datagram.
		bufs := make([]*wireBuf, recvBatchSize)
		views := make([][]byte, recvBatchSize)
		sizes := make([]int, recvBatchSize)
		for {
			for i := range bufs {
				if bufs[i] == nil {
					bufs[i] = d.arena.get(bufClassLarge)
					views[i] = bufs[i].b
				}
			}
			n, err := bc.ReadBatch(views, sizes)
			if err != nil {
				if errors.Is(err, net.ErrClosed) || tr.isClosed() {
					for _, wb := range bufs {
						if wb != nil {
							wb.release()
						}
					}
					return
				}
				// Transient errors on loopback are unexpected but
				// not fatal; keep serving.
				continue
			}
			for i := 0; i < n; i++ {
				wb := bufs[i]
				bufs[i] = nil
				wb.b = wb.b[:sizes[i]]
				d.receiveDatagram(ep, wb)
			}
		}
	}()
}

// receiveDatagram routes one received datagram (whose bytes are wb.b) by
// its frame tag, taking ownership of wb. Payload travels only inside
// sequenced frames; the unsequenced control frames (heartbeat, bye, probe,
// join) are handled here; anything else — a bare frameSingle/frameBatch
// included, which would otherwise reach the inbox past the incarnation
// gate, duplicate suppression and sequencing — is counted as a decode
// error and dropped.
func (d *Domain) receiveDatagram(ep *Endpoint, wb *wireBuf) {
	b := wb.b
	if len(b) == 0 {
		d.decodeErrors.Add(1)
		wb.release()
		return
	}
	if b[0] == frameSeq {
		d.rel.receive(ep, wb)
		return
	}
	// Every control frame shares the prefix [tag u8][from u16 LE]
	// [incarnation u32 LE]; each case checks its own minimum length
	// before using it.
	var from int
	var inc uint32
	if len(b) >= hbFrameLen {
		from = int(binary.LittleEndian.Uint16(b[1:3]))
		inc = binary.LittleEndian.Uint32(b[3:7])
	}
	h := ep.host
	switch b[0] {
	case frameHB:
		// A heartbeat counts as hearing from the peer only when it carries
		// the peer's current incarnation — a dead process's heartbeats
		// lingering in a socket buffer must not keep its ghost alive.
		if len(b) >= hbFrameLen && from < d.cfg.Ranks && from != ep.rank {
			h.deliver(from, event{kind: evHeartbeat, inc: inc})
		}
	case frameBye:
		// A peer announced its graceful departure: declare it Down now
		// instead of waiting out DownAfter of silence. Corrupt or
		// self-referential frames are dropped — wire input is untrusted —
		// and so is a bye stamped with a dead incarnation, which would
		// otherwise bury the peer's restarted successor.
		if len(b) >= byeFrameLen && from < d.cfg.Ranks && from != ep.rank {
			h.deliver(from, event{kind: evBye, inc: inc})
		}
	case frameProbe:
		// A partition probe (or its ack): authentic same-incarnation
		// traffic from a peer we may have declared dead — which is why the
		// lifecycle gates probes separately from everything else.
		if len(b) >= probeFrameLen && from < d.cfg.Ranks && from != ep.rank {
			kind := evProbe
			if b[7] != probeKindProbe {
				kind = evProbeAck
			}
			h.deliver(from, event{kind: kind, inc: inc})
		}
	case frameJoin:
		// A restarted peer announcing its new incarnation and socket.
		// Multiproc worlds only — in-process ranks cannot restart — and
		// the address is untrusted wire input: validate length and parse
		// before it can reach the address table.
		if d.cfg.Multiproc && len(b) >= joinFrameMin {
			alen := int(b[7])
			if from >= d.cfg.Ranks || from == ep.rank || len(b) < joinFrameMin+alen {
				d.decodeErrors.Add(1)
			} else if addr, err := netip.ParseAddrPort(string(b[joinFrameMin : joinFrameMin+alen])); err != nil {
				d.decodeErrors.Add(1)
			} else {
				h.deliver(from, event{kind: evJoin, inc: inc, addr: addr})
			}
		}
	default:
		d.decodeErrors.Add(1)
	}
	wb.release()
}

// frameWalk steps through the message bodies packed in one frameSingle or
// frameBatch frame without allocating. Each body is capped at its own
// length (see decodeWire). The reader walks a frame once to validate it
// (scanFrame); the owner walks it again to decode and dispatch the
// messages the reader counted (host.expandFrame).
type frameWalk struct {
	b    []byte
	off  int
	left int // messages the header claims that the walk has not reached
}

// openFrame validates the header of the inner frame of a sequenced
// datagram and returns a walk over its messages. It accepts exactly the
// frames the senders in this file emit; anything else reports false.
func openFrame(frame []byte) (frameWalk, bool) {
	if len(frame) < 1 {
		return frameWalk{}, false
	}
	switch frame[0] {
	case frameSingle:
		return frameWalk{b: frame, off: 1, left: 1}, true
	case frameBatch:
		if len(frame) < batchHeaderLen {
			return frameWalk{}, false
		}
		count := int(binary.LittleEndian.Uint16(frame[1:3]))
		return frameWalk{b: frame, off: batchHeaderLen, left: count}, count > 0
	default:
		return frameWalk{}, false
	}
}

// next returns the next message body. It reports false at the end of the
// frame, and on a length prefix or body that overruns it — the walk then
// stops with left > 0.
func (w *frameWalk) next() ([]byte, bool) {
	if w.left == 0 {
		return nil, false
	}
	end := len(w.b)
	if w.b[0] == frameBatch {
		if end-w.off < 4 {
			return nil, false
		}
		l := int(binary.LittleEndian.Uint32(w.b[w.off:]))
		w.off += 4
		if l > end-w.off {
			return nil, false
		}
		end = w.off + l
	}
	body := w.b[w.off:end:end]
	w.off = end
	w.left--
	return body, true
}

// scanFrame is the reader's one walk over a delivered frame: it checks
// each length prefix, that each body holds a message header, and folds
// each handler id into the ack level the frame asks for — ackLazy when
// every message is a reply (a handler id with its bit set in replies),
// ackUrgent otherwise. It returns how many messages from the front are
// valid, and whether the frame is corrupt past them: a corrupt frame's
// valid prefix is still delivered (the sequence number is already
// consumed, and a well-behaved sender never produces one), and its ack is
// urgent.
func scanFrame(frame []byte, replies uint64) (n int, level uint32, corrupt bool) {
	w, ok := openFrame(frame)
	if !ok {
		return 0, ackUrgent, true
	}
	level = ackLazy
	for {
		body, ok := w.next()
		if !ok {
			break
		}
		if len(body) < wireHeaderLen {
			return n, ackUrgent, true
		}
		if replies&(1<<body[0]) == 0 {
			level = ackUrgent
		}
		n++
	}
	if w.left > 0 {
		return n, ackUrgent, true
	}
	return n, level, false
}

// deliverParsed is the step after reliability unwrapping (it is called
// only from host.stepStreams): it validates one frameSingle/frameBatch
// frame (whose bytes live in wb) from peer from with scanFrame and pushes
// it into ep's inbox as one hFrame entry — Payload the frame, A0 the
// number of valid messages, From the sender, buf the caller's reference
// on wb, which the entry takes over.
// The owner decodes the messages in place when it drains the entry
// (host.expandFrame). A corrupt frame is counted once; a frame with no
// valid message is dropped here. It returns scanFrame's ack level.
func (d *Domain) deliverParsed(ep *Endpoint, from int, wb *wireBuf, frame []byte) uint32 {
	n, level, corrupt := scanFrame(frame, d.udp.replies.Load())
	if corrupt {
		d.decodeErrors.Add(1)
	}
	if n == 0 {
		wb.release()
		return level
	}
	ep.inbox.push(Msg{Handler: hFrame, From: int32(from), A0: uint64(n), Payload: frame, buf: wb})
	ep.notify()
	return level
}

// isFrame reports whether inbox entry m is a received UDP frame, one entry
// for many messages, rather than a single message. Only a socket-fed
// endpoint holds frames, and every other entry it holds carries a closure
// (Send stages wire-encodable messages for the socket), so a message sent
// with the reserved id hFrame is still dispatched — and dropped — as one.
func (ep *Endpoint) isFrame(m *Msg) bool {
	return m.Handler == hFrame && m.Fn == nil && ep.host != nil
}

// expandFrame expands one hFrame inbox entry on the owner goroutine: it
// decodes each message in wire order into the round's scratch message and
// drops the frame's reference once the last one is done with. Each
// message's From is the frame's sender, whatever its body says: the
// sequenced stream vouches for the sender, and handlers index per-peer
// state and address their replies by From. For Poll (internal false) it
// dispatches every message and returns how many; the messages borrow the
// frame's reference, and a handler keeps Payload bytes only by copying
// them, as on every conduit. For PollInternal it applies the requests,
// holds a copy of every other message for the next Poll — each copy with
// its own reference on the frame — and returns how many requests it
// applied. A handler that polls dispatches the frame's remaining messages
// in that nested round; the frame's reference is still dropped here.
func (h *host) expandFrame(e *Msg, internal bool) int {
	wb := e.buf
	e.buf = nil
	h.frame, _ = openFrame(e.Payload)
	h.frameLeft, h.frameFrom, h.frameBuf = int(e.A0), e.From, wb
	done := h.expandRest(internal)
	h.frameBuf = nil
	wb.release()
	return done
}

// expandRest decodes and handles the remaining messages of the frame
// being expanded, as expandFrame describes, and returns how many it
// dispatched or applied.
func (h *host) expandRest(internal bool) int {
	rx := h.rxSlot()
	done := 0
	for h.frameLeft > 0 {
		h.frameLeft--
		body, _ := h.frame.next()
		decodeWire(rx, body)
		rx.From = h.frameFrom
		switch {
		case !internal:
			h.ep.dispatch(rx)
		case !h.ep.serviceRequest(rx):
			h.frameBuf.retain(1)
			held := *rx
			held.buf = h.frameBuf
			h.ep.held = append(h.ep.held, held)
			continue
		}
		done++
	}
	*rx = Msg{}
	return done
}

// rxSlot returns the scratch message of the dispatch round running now:
// rx for the outermost round, a slot of its own for each nested depth.
func (h *host) rxSlot() *Msg {
	d := h.ep.depth - 2
	if d < 0 {
		return &h.rx
	}
	for len(h.nestRx) <= d {
		h.nestRx = append(h.nestRx, new(Msg))
	}
	return h.nestRx[d]
}

// writeFrame puts one frame on the wire — a retransmission, a standalone
// ack or a control frame, each of which keeps its own counter. First
// transmissions leave only through writeBatch.
func (h *host) writeFrame(to int, frame []byte) {
	d := h.ep.dom
	if _, err := h.send.WriteToUDPAddrPort(frame, d.udp.addrOf(to)); err != nil {
		if errors.Is(err, net.ErrClosed) {
			return // racing shutdown; message loss is fine post-Close
		}
		// A failed write (a dead peer's ICMP-refused port, transient
		// ENOBUFS) is wire loss: the reliability layer repairs it or,
		// persisting, the liveness machine attributes it.
		d.sendErrors.Add(1)
	}
}

// writeBatch counts and ships a set of staged first-transmission
// datagrams through the sender's vectorized write path — one sendmmsg on
// capable platforms, however many frames are staged. DatagramsSent counts
// first transmissions only: retransmissions and standalone acks keep
// their own counters, so it stays the coalescing cost model — datagrams
// the protocol decided to send — rather than a wire-traffic tally.
func (h *host) writeBatch(frames []batchFrame) {
	d := h.ep.dom
	d.datagramsSent.Add(int64(len(frames)))
	if err := h.send.WriteBatch(frames); err != nil {
		if errors.Is(err, net.ErrClosed) || d.udp.isClosed() {
			return // racing shutdown; message loss is fine post-Close
		}
		// Loss of the unwritten tail (see writeFrame): the reliability
		// layer retransmits whatever the peer never saw.
		d.sendErrors.Add(1)
	}
}

// --- when a wire message leaves ---

// coalescer is a hosted rank's send staging (DESIGN.md §7.3). Every wire
// message Send hands the UDP conduit is packed into its destination's
// frameBatch here; the staged set leaves in one vectorized write at the
// owner's next progress call (Poll, PollInternal, Idle), at Flush or the
// outermost EndBurst, at Domain.Close — or, for a rank that computes
// without progress, from the reliability ticker once a batch has waited a
// whole relTickInterval. A destination whose datagram fills is sealed at
// once and waits in sendq for that write.
// The whole batch rides inside one sequenced frame and is retransmitted
// as a unit.
//
// The owner and the ticker both touch it, so mu guards every field but
// since: the owner takes Lock (uncontended but for a backstop pass), the
// ticker only TryLock, so the backstop never delays the owner by more
// than its own pass and never blocks.
type coalescer struct {
	mu     sync.Mutex
	burst  int          // open BeginBurst nesting; > 0 holds the staged set
	bufs   []*wireBuf   // per destination; nil when no batch is open
	counts []int        // messages packed per destination
	dirty  []int        // destinations with an open batch, in first-use order
	sendq  []batchFrame // sealed frames awaiting the vectorized write
	// since is the time the oldest open batch was opened, 0 when none is:
	// the owner's lock-free "anything staged?" glance, and the backstop's
	// age test.
	since atomic.Int64
}

// stage packs m into destination to's open batch, opening one if needed.
// A message that does not fit the destination's datagram first seals the
// full one. A batch opens in the smallest buffer class that holds its
// first message and moves to a datagram-sized one when it outgrows it,
// so a frame that carries one message pins no more than before
// coalescing did in the retransmit queue. Owner goroutine only.
func (h *host) stage(to int, m *Msg) {
	need := 4 + wireHeaderLen + len(m.Payload)
	if relHeaderLen+batchHeaderLen+need > maxUDPPayload {
		// Checked before locking: the panic must leave the coalescer usable.
		panic(fmt.Sprintf("gasnet: AM payload %d bytes exceeds UDP conduit limit %d",
			len(m.Payload), maxUDPPayload))
	}
	c := &h.co
	c.mu.Lock()
	wb := c.bufs[to]
	if wb == nil {
		if len(c.dirty) == 0 {
			c.since.Store(clockRefresh())
		}
		wb = c.open(to, need, h.ep.dom)
		c.dirty = append(c.dirty, to)
	} else if len(wb.b)+need > maxUDPPayload || c.counts[to] == 1<<16-1 {
		// The full datagram is sealed, not written: it rides the next
		// vectorized write with the rest of the staged set (a full window
		// writes it while the seal waits).
		h.stageDest(to, true)
		wb = c.open(to, need, h.ep.dom) // to stays in dirty
	} else if len(wb.b)+need > cap(wb.b) {
		big := h.ep.dom.arena.get(bufClassLarge)
		big.b = append(big.b[:0], wb.b...)
		wb.release()
		wb, c.bufs[to] = big, big
	}
	lenOff := len(wb.b)
	wb.b = append(wb.b, 0, 0, 0, 0)
	wb.b = appendMsg(wb.b, m)
	binary.LittleEndian.PutUint32(wb.b[lenOff:], uint32(len(wb.b)-lenOff-4))
	c.counts[to]++
	c.mu.Unlock()
}

// open starts destination to's batch in a pooled buffer with room for a
// first entry of need bytes. Caller holds c.mu.
func (c *coalescer) open(to, need int, d *Domain) *wireBuf {
	wb := d.arena.get(relHeaderLen + batchHeaderLen + need)
	// Reserve the (garbage for now) reliability header; the batch count
	// is patched by stageDest, the header by trySeal.
	wb.b = append(wb.b[:relHeaderLen], frameBatch, 0, 0)
	c.bufs[to] = wb
	return wb
}

// flush ships the staged set unless a burst holds it: the owner's
// progress-time send point. The lock-free glance keeps an idle poll off
// the mutex. Owner goroutine only.
func (h *host) flush() {
	c := &h.co
	if c.since.Load() == 0 {
		return
	}
	c.mu.Lock()
	if c.burst == 0 {
		h.shipStaged(true)
	}
	c.mu.Unlock()
}

// backstop is the ticker's share of the send rule: a batch staged for a
// whole relTickInterval by an owner that has not called progress since
// ships from here. It never blocks — TryLock, and trySeal leaves a batch
// that meets a full window for the owner — and it reports each frame it
// shipped in Stats.TickFlushes.
func (h *host) backstop(now int64) {
	c := &h.co
	if t := c.since.Load(); t == 0 || now-t < int64(relTickInterval) || !c.mu.TryLock() {
		return
	}
	if c.burst == 0 {
		// Counted before the write, so a receiver never sees a frame the
		// counter does not.
		h.sealStaged(false)
		h.ep.dom.tickFlushes.Add(int64(len(c.sendq)))
		h.writeStaged()
	}
	c.mu.Unlock()
}

// shipStaged seals every open batch and writes the sealed set in one
// vectorized write. block selects seal (wait out a full window: the
// owner) or trySeal (leave the batch open: Close). Caller holds c.mu.
func (h *host) shipStaged(block bool) {
	h.sealStaged(block)
	h.writeStaged()
}

// sealStaged seals every open batch onto sendq (see shipStaged). Caller
// holds c.mu.
func (h *host) sealStaged(block bool) {
	c := &h.co
	keep := c.dirty[:0]
	for _, to := range c.dirty {
		if !h.stageDest(to, block) {
			keep = append(keep, to)
		}
	}
	c.dirty = keep
	if len(keep) == 0 {
		c.since.Store(0)
	}
}

// stageDest seals destination to's open batch — stamping the batch count
// and the sequence header, and taking a slot in the retransmit queue — and
// appends the frame to sendq for the next vectorized write. It reports
// false only when !block and the window is full, leaving the batch open.
// The buffer reference travels with the staged frame and is released by
// writeStaged; the retransmit queue holds its own. Caller holds c.mu.
func (h *host) stageDest(to int, block bool) bool {
	c := &h.co
	wb := c.bufs[to]
	d := h.ep.dom
	count := c.counts[to]
	binary.LittleEndian.PutUint16(wb.b[relHeaderLen+1:relHeaderLen+3], uint16(count))
	var ok bool
	if block {
		ok = d.rel.seal(h, to, wb)
	} else {
		var full bool
		if ok, full = d.rel.trySeal(h, to, wb); full {
			return false
		}
	}
	c.bufs[to] = nil
	c.counts[to] = 0
	if !ok {
		wb.release() // shutdown or a down peer: dropped
		return true
	}
	if count > 1 {
		d.coalescedBatches.Add(1)
		d.coalescedMsgs.Add(int64(count))
	}
	c.sendq = append(c.sendq, batchFrame{b: wb.b, addr: d.udp.addrOf(to), wb: wb})
	return true
}

// writeStaged ships every sealed frame in one vectorized write and
// releases the staged buffer references. Caller holds c.mu.
func (h *host) writeStaged() {
	c := &h.co
	if len(c.sendq) == 0 {
		return
	}
	h.writeBatch(c.sendq)
	for i := range c.sendq {
		c.sendq[i].wb.release()
		c.sendq[i] = batchFrame{}
	}
	c.sendq = c.sendq[:0]
}

// shipAtClose ships what Close finds staged, without blocking: a frame
// that meets a full window is dropped with the rest of the conduit state.
// The owners are done by then; TryLock only guards against one that is
// not.
func (h *host) shipAtClose() {
	if c := &h.co; c.mu.TryLock() {
		h.shipStaged(false)
		c.mu.Unlock()
	}
}

// dropStaged releases whatever is still staged once the sockets are
// closed.
func (h *host) dropStaged() {
	c := &h.co
	c.mu.Lock()
	for _, to := range c.dirty {
		if wb := c.bufs[to]; wb != nil {
			wb.release()
			c.bufs[to] = nil
			c.counts[to] = 0
		}
	}
	c.dirty = c.dirty[:0]
	c.since.Store(0)
	c.mu.Unlock()
}

// Flush ships this rank's staged wire messages now, unless a burst is
// open. Progress ships them anyway; Flush is for a caller that must put
// its sends on the wire before it stops calling progress — the last token
// of a collective, a send that precedes a teardown, a test that counts
// frames. A no-op on the in-memory conduits.
func (ep *Endpoint) Flush() {
	if h := ep.host; h != nil {
		h.flush()
	}
}

// BeginBurst opens an injection burst: until the matching EndBurst, the
// rank's staged wire messages stay staged — Flush, Poll and the ticker's
// backstop all hold them — so one burst of sends leaves as one datagram
// per destination however much progress it spans. Bursts nest; the
// outermost EndBurst ships. Send stages without a burst too; a burst only
// widens the batch. A no-op on the in-memory conduits, which deliver at
// Send.
func (ep *Endpoint) BeginBurst() {
	if h := ep.host; h != nil {
		h.co.mu.Lock()
		h.co.burst++
		h.co.mu.Unlock()
	}
}

// EndBurst closes an injection burst, shipping the staged set when the
// outermost burst ends.
func (ep *Endpoint) EndBurst() {
	h := ep.host
	if h == nil {
		return
	}
	c := &h.co
	c.mu.Lock()
	if c.burst == 0 {
		c.mu.Unlock()
		panic("gasnet: EndBurst without matching BeginBurst")
	}
	c.burst--
	if c.burst == 0 {
		h.shipStaged(true)
	}
	c.mu.Unlock()
}

// isClosed reports whether close has begun; the reader and batch-write
// paths use it to distinguish a racing shutdown from a genuine socket
// error.
func (tr *udpTransport) isClosed() bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.closed
}

// close shuts down the sockets and waits for the reader goroutines.
func (tr *udpTransport) close() {
	tr.mu.Lock()
	if tr.closed {
		tr.mu.Unlock()
		return
	}
	tr.closed = true
	tr.mu.Unlock()
	for _, h := range tr.hosts {
		h.conn.Close()
	}
	tr.wg.Wait()
}

// sendBye announces this process's graceful departure to every peer it
// still considers alive — best-effort raw departure frames (unsequenced:
// the reliability state is about to be torn down, and a lost bye only
// means the peer falls back to the DownAfter silence timer). Multiproc
// worlds only; in-process worlds tear every rank down together.
func (d *Domain) sendBye() {
	if !d.cfg.Multiproc || d.udp.isClosed() {
		return
	}
	h := d.eps[d.cfg.Self].host
	frame := h.hbFrame
	frame[0] = frameBye
	for to := range h.peers {
		if to == h.rank || h.peers[to].state.Load() == peerDown {
			continue
		}
		h.writeFrame(to, frame[:])
	}
}

// Close releases conduit resources: the reliability ticker, the UDP
// sockets and reader goroutines, and any buffers still parked in
// retransmission or reorder queues. It is idempotent and a no-op for the
// in-memory conduits. Endpoints must not be driven after Close. Staged
// sends ship first, then, in a multiproc world, departure is announced to
// the surviving peers (sendBye), integrating graceful teardown with the
// liveness machine — a peer never hears the goodbye before a message
// sent ahead of it.
func (d *Domain) Close() {
	if d.udp == nil {
		return
	}
	if !d.udp.isClosed() {
		for _, h := range d.udp.hosts {
			h.shipAtClose()
		}
	}
	d.sendBye()
	d.rel.shutdown()
	d.udp.close()
	d.rel.drainState()
}
