//go:build linux && (amd64 || arm64)

package gasnet

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Vectorized datagram I/O via raw sendmmsg/recvmmsg syscalls. The Go
// standard library exposes neither (x/net does, but this module carries
// zero dependencies), so the conduit drives them itself through the
// socket's syscall.RawConn: the fd stays registered with the runtime
// netpoller, EAGAIN parks the goroutine exactly as net's own I/O does,
// and the buffers involved are ordinary pooled wireBufs. A burst of N
// staged frames is one sendmmsg; a backlog of N queued datagrams is one
// recvmmsg — the syscall-per-datagram cost the paper's UDP runs pay
// disappears from the amortized path.
//
// Only the real mmsg path bumps the Domain's Sendmmsg*/Recvmmsg*
// counters, so tests (and operators) can assert which datapath is live.

// mmsgAvailable reports whether this build uses the vectorized path.
// Tests gate syscall-count assertions on it.
const mmsgAvailable = true

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the
// returned datagram length. On both supported 64-bit arches Go pads the
// struct to the kernel's 64-byte layout.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// mmsgConn is the vectorized batchConn: writes and reads move many
// datagrams per syscall. The embedded UDPConn still serves the
// single-frame path (WriteToUDPAddrPort). Write scratch and state are
// mutex-guarded — the rank goroutine, the retransmit sweep, and heartbeats
// share the send path — while read scratch and state belong to the
// socket's one reader of the moment, the holder of its host's read lock.
//
// The RawConn callbacks are bound once, as method values whose per-call
// state lives in these fields: a closure built per call would allocate
// itself plus every variable it captures, on every syscall.
type mmsgConn struct {
	*net.UDPConn
	rc syscall.RawConn
	d  *Domain

	wmu   sync.Mutex
	whdrs []mmsghdr
	wiovs []syscall.Iovec
	wsas  []syscall.RawSockaddrInet4
	wn    int   // frames in this write
	wsent int   // frames the kernel has taken so far
	werr  error // a hard send error
	write func(fd uintptr) bool

	rhdrs []mmsghdr
	riovs []syscall.Iovec
	rn    int   // datagram slots offered to this read
	rgot  int   // datagrams received
	rerr  error // a hard receive error
	read  func(fd uintptr) bool
	// readNow is recvmmsg for RawConn.Control, which neither waits nor
	// looks at the read deadline.
	readNow func(fd uintptr)
}

// newBatchConn wraps conn in the vectorized adapter, or the sequential
// fallback when the raw fd is unavailable.
func newBatchConn(conn *net.UDPConn, d *Domain) batchConn {
	rc, err := conn.SyscallConn()
	if err != nil {
		return seqConn{conn}
	}
	c := &mmsgConn{UDPConn: conn, rc: rc, d: d}
	c.write, c.read = c.sendmmsg, c.recvmmsg
	c.readNow = func(fd uintptr) { c.recvmmsg(fd) }
	return c
}

// maxHW raises an atomic high-water mark to v if it is the new maximum.
func maxHW(hw *atomic.Int64, v int64) {
	for {
		cur := hw.Load()
		if v <= cur || hw.CompareAndSwap(cur, v) {
			return
		}
	}
}

// WriteBatch transmits every staged frame in as few sendmmsg calls as
// the kernel allows — one, in the common case. Frame buffers are only
// read during the call; the caller keeps ownership.
func (c *mmsgConn) WriteBatch(frames []batchFrame) error {
	n := len(frames)
	if n == 0 {
		return nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if cap(c.whdrs) < n {
		c.whdrs = make([]mmsghdr, n)
		c.wiovs = make([]syscall.Iovec, n)
		c.wsas = make([]syscall.RawSockaddrInet4, n)
	}
	hdrs, iovs, sas := c.whdrs[:n], c.wiovs[:n], c.wsas[:n]
	for i := range frames {
		fr := &frames[i]
		a := fr.addr.Addr().Unmap()
		if !a.Is4() {
			// The conduit binds IPv4 loopback sockets, so this is
			// unreachable in practice; write sequentially rather than
			// mis-encode a sockaddr.
			return seqConn{c.UDPConn}.WriteBatch(frames)
		}
		port := fr.addr.Port()
		sas[i] = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: a.As4()}
		sas[i].Port = port<<8 | port>>8 // network byte order
		iovs[i].Base = &fr.b[0]
		iovs[i].SetLen(len(fr.b))
		hdrs[i] = mmsghdr{}
		hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&sas[i]))
		hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(sas[i]))
		hdrs[i].hdr.Iov = &iovs[i]
		hdrs[i].hdr.Iovlen = 1
	}
	c.wn, c.wsent, c.werr = n, 0, nil
	err := c.rc.Write(c.write)
	runtime.KeepAlive(frames)
	if c.werr != nil {
		return c.werr
	}
	return err
}

// sendmmsg is WriteBatch's RawConn callback: it sends the staged headers
// from c.wsent on, reporting false to park until the socket is writable.
// Runs under wmu.
func (c *mmsgConn) sendmmsg(fd uintptr) bool {
	for c.wsent < c.wn {
		r, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&c.whdrs[c.wsent])), uintptr(c.wn-c.wsent), 0, 0, 0)
		switch errno {
		case 0:
			c.d.sendmmsgCalls.Add(1)
			c.d.sendBatchFrames.Add(int64(r))
			maxHW(&c.d.sendBatchHW, int64(r))
			c.wsent += int(r)
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false // socket buffer full: park until writable
		default:
			c.werr = errno
			return true
		}
	}
	return true
}

// ReadBatch fills views with up to len(views) queued datagrams in one
// recvmmsg, blocking (parked on the netpoller) until at least one is
// available or the read deadline passes.
func (c *mmsgConn) ReadBatch(views [][]byte, sizes []int) (int, error) {
	return c.recv(views, sizes, true)
}

// ReadBatchNow is one recvmmsg of what is queued, without waiting.
func (c *mmsgConn) ReadBatchNow(views [][]byte, sizes []int) (int, error) {
	return c.recv(views, sizes, false)
}

// recv is ReadBatch (block) and ReadBatchNow. Only a call that moved
// datagrams is counted.
func (c *mmsgConn) recv(views [][]byte, sizes []int, block bool) (int, error) {
	n := len(views)
	if n == 0 {
		return 0, nil
	}
	if cap(c.rhdrs) < n {
		c.rhdrs = make([]mmsghdr, n)
		c.riovs = make([]syscall.Iovec, n)
	}
	hdrs, iovs := c.rhdrs[:n], c.riovs[:n]
	for i := range hdrs {
		iovs[i].Base = &views[i][0]
		iovs[i].SetLen(len(views[i]))
		hdrs[i] = mmsghdr{}
		hdrs[i].hdr.Iov = &iovs[i]
		hdrs[i].hdr.Iovlen = 1
	}
	c.rn, c.rgot, c.rerr = n, 0, nil
	var err error
	if block {
		err = c.rc.Read(c.read)
	} else {
		err = c.rc.Control(c.readNow)
	}
	runtime.KeepAlive(views)
	if c.rerr != nil {
		return 0, c.rerr
	}
	if err != nil {
		return 0, err
	}
	got := c.rgot
	if got == 0 {
		return 0, nil
	}
	for i := 0; i < got; i++ {
		sizes[i] = int(hdrs[i].n)
	}
	c.d.recvmmsgCalls.Add(1)
	c.d.recvBatchFrames.Add(int64(got))
	maxHW(&c.d.recvBatchHW, int64(got))
	return got, nil
}

// recvmmsg is recv's RawConn callback: it receives into the first c.rn
// headers, reporting false to park until the socket is readable (the
// non-blocking read ignores the report: nothing queued reads 0).
func (c *mmsgConn) recvmmsg(fd uintptr) bool {
	for {
		r, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
			uintptr(unsafe.Pointer(&c.rhdrs[0])), uintptr(c.rn), 0, 0, 0)
		switch errno {
		case 0:
			c.rgot = int(r)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false // nothing queued: park until readable
		default:
			c.rerr = errno
			return true
		}
	}
}
