//go:build !unix

package gasnet

import (
	"errors"
	"net"
	"os"
	"time"
)

// recvNowWait is how long recvNow gives a datagram to be there where the
// socket cannot be read without the netpoller.
const recvNowWait = 50 * time.Microsecond

// recvNow reads one queued datagram from conn into b, or reports 0. This
// platform has no non-blocking read outside the netpoller, so it reads
// under a short deadline; the caller sets a fresh deadline before its
// next blocking read. seqConn's ReadBatchNow.
func recvNow(conn *net.UDPConn, b []byte) (int, error) {
	conn.SetReadDeadline(time.Now().Add(recvNowWait))
	n, _, err := conn.ReadFromUDPAddrPort(b)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return 0, nil
	}
	return n, err
}
