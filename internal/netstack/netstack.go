// Package netstack provides the two transports the FLICK platform runs on.
//
// The paper's platform uses the kernel TCP stack or a modified mTCP (a
// user-space TCP stack) over DPDK; the mTCP path removes per-connection
// syscall and VFS overhead and dramatically cuts connection set-up cost.
// This reproduction keeps the same split:
//
//   - KernelTCP: the operating-system stack via the net package (loopback in
//     benchmarks). Every read/write/connect is a real syscall.
//   - UserNet ("unet"): an in-process user-space stack. Connections are pairs
//     of ring buffers, connection establishment is a queue push, and no
//     syscalls occur on the data path. This is the mTCP/DPDK substitute: it
//     exhibits the same qualitative property (per-connection and per-op cost
//     collapse) for the same architectural reason (no kernel crossing).
//
// Both transports implement Transport and produce net.Conn values, so every
// server, baseline and load generator in the repository runs unmodified on
// either stack.
//
// The platform itself reads every socket one way, as a Readable: a
// readable callback schedules the reader, which takes the bytes that have
// arrived into its parse queue by reference (TryReadRefs). UserNet
// connections are Readable natively. Events wraps any other connection
// with the one kernel pump — a goroutine blocked in Read into a pooled
// ReadChunk — so replacing that goroutine (with epoll, say) changes Events
// alone.
package netstack

import (
	"errors"
	"net"
	"time"
)

// Transport abstracts a network stack.
type Transport interface {
	// Listen opens a listener on addr ("host:port" for KernelTCP, any
	// non-empty string for UserNet).
	Listen(addr string) (net.Listener, error)
	// Dial connects to a listener previously opened on addr.
	Dial(addr string) (net.Conn, error)
	// Name identifies the transport in benchmark output ("kernel", "unet").
	Name() string
}

// Common errors.
var (
	ErrClosed      = errors.New("netstack: use of closed connection")
	ErrNoListener  = errors.New("netstack: connection refused (no listener)")
	ErrAddrInUse   = errors.New("netstack: address already in use")
	ErrBacklogFull = errors.New("netstack: accept backlog full")
)

// timeoutError implements net.Error for deadline expiry.
type timeoutError struct{}

func (timeoutError) Error() string   { return "netstack: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// ErrTimeout is returned when a deadline expires.
var ErrTimeout net.Error = timeoutError{}

// addr is the trivial net.Addr used by UserNet.
type addr string

func (a addr) Network() string { return "unet" }
func (a addr) String() string  { return string(a) }

// Spin busy-waits for approximately d. It models CPU time consumed inside a
// protocol stack or middlebox computation without sleeping (sleeping would
// release the core, which is not what syscall overhead does).
func Spin(d time.Duration) {
	if d <= 0 {
		return
	}
	start := time.Now()
	for time.Since(start) < d {
	}
}
