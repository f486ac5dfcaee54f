package netstack

import "net"

// KernelTCP is the operating-system TCP stack. Benchmarks use it on loopback
// ("127.0.0.1:0"); every operation is a real syscall, so it carries the
// connection set-up/tear-down and user/kernel-crossing costs the paper
// attributes to the kernel stack (§5: VFS socket overhead, mode switches).
type KernelTCP struct{}

// Name implements Transport.
func (KernelTCP) Name() string { return "kernel" }

// Listen implements Transport.
func (KernelTCP) Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// Dial implements Transport.
func (KernelTCP) Dial(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr)
}

var _ Transport = KernelTCP{}
