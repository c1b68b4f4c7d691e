//go:build unix

package gasnet

import (
	"net"
	"syscall"
)

// recvNow reads one queued datagram from conn into b without waiting: the
// runtime keeps every socket in non-blocking mode, so an empty queue is
// EAGAIN, reported as 0. It reads the descriptor directly, past the
// netpoller, and so ignores the read deadline. seqConn's ReadBatchNow.
func recvNow(conn *net.UDPConn, b []byte) (int, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0, err
	}
	var n int
	var rerr error
	if err := rc.Control(func(fd uintptr) {
		for {
			n, rerr = syscall.Read(int(fd), b)
			if rerr != syscall.EINTR {
				return
			}
		}
	}); err != nil {
		return 0, err
	}
	if rerr == syscall.EAGAIN {
		return 0, nil
	}
	return n, rerr
}
