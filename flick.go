// Package flick is a Go reproduction of "FLICK: Developing and Running
// Application-Specific Network Services" (Alim et al., USENIX ATC 2016):
// a domain-specific language for application-level middlebox services and a
// runtime platform that executes compiled FLICK programs as cooperatively
// scheduled task graphs.
//
// This package is the public facade. It compiles FLICK source to deployable
// services, hosts them on platforms backed by either the kernel TCP stack
// or the bundled in-process user-space stack (the paper's mTCP substitute),
// and exposes the built-in wire formats (HTTP, Memcached binary,
// Hadoop-style key/value streams, newline-delimited text).
//
// Quick use:
//
//	svc, _ := flick.CompileService(src, flick.ServiceOptions{
//	        Codecs: map[string]flick.Codec{"line": flick.LineCodec()},
//	})
//	p := flick.NewPlatform(flick.PlatformOptions{InProcessNet: true})
//	defer p.Close()
//	deployed, _ := p.Deploy(svc, "myservice:1", nil)
//	conn, _ := p.Dial("myservice:1")
//
// The three services evaluated in the paper ship pre-packaged in
// internal/apps and are runnable through cmd/flickrun; the full evaluation
// harness lives in cmd/flickbench.
package flick

import (
	"fmt"
	"net"
	"runtime"

	"flick/internal/compiler"
	"flick/internal/core"
	"flick/internal/grammar"
	"flick/internal/netstack"
	"flick/internal/proto/hadoop"
	phttp "flick/internal/proto/http"
	"flick/internal/proto/memcache"
)

// Codec binds a record type to wire formats: Decode parses inbound bytes,
// Encode serialises outbound values. Built-in constructors cover the
// protocols used by the paper's services; record types whose declarations
// carry complete serialisation annotations need no Codec at all (the
// compiler synthesises one from the program, §4.2).
type Codec = compiler.CodecPair

// PortCodec overrides codecs per channel for asymmetric protocols (the
// HTTP load balancer decodes requests and encodes responses client-side).
type PortCodec = compiler.PortCodec

// LineCodec is the newline-delimited text format (field "line" or, for
// single-field records, the declared field).
func LineCodec() Codec {
	c := grammar.LineUnit().MustCompile()
	return Codec{Decode: c, Encode: c}
}

// MemcachedCodec is the Memcached binary protocol (the paper's Listing 2).
func MemcachedCodec() Codec {
	return Codec{Decode: memcache.Codec, Encode: memcache.Codec}
}

// HadoopKVCodec is the length-prefixed key/value stream of the Hadoop
// aggregator.
func HadoopKVCodec() Codec {
	return Codec{Decode: hadoop.Codec, Encode: hadoop.Codec}
}

// HTTPRequestCodec decodes/encodes HTTP requests.
func HTTPRequestCodec() Codec {
	return Codec{Decode: phttp.RequestFormat{}, Encode: phttp.RequestFormat{}}
}

// HTTPResponseCodec decodes/encodes HTTP responses.
func HTTPResponseCodec() Codec {
	return Codec{Decode: phttp.ResponseFormat{}, Encode: phttp.ResponseFormat{}}
}

// ServiceOptions parameterise compilation of a FLICK program.
type ServiceOptions struct {
	// Proc names the process to deploy; empty selects the program's sole
	// process.
	Proc string
	// ArraySizes fixes channel-array lengths (deployment constants).
	ArraySizes map[string]int
	// Codecs binds record type names to wire formats.
	Codecs map[string]Codec
	// ChannelCodecs overrides codecs per channel name.
	ChannelCodecs map[string]PortCodec
	// Backends names the channel array dialled to backend addresses at
	// deployment (defaults to the program's only channel array, if any).
	Backends string
	// Primary names the client-facing channel (defaults to the first
	// bidirectional scalar channel).
	Primary string
}

// Service is a compiled, deployable FLICK program.
type Service struct {
	program *compiler.Program
	graph   *compiler.ProcGraph
	opts    ServiceOptions
}

// CompileService parses, type-checks and compiles FLICK source.
func CompileService(src string, opts ServiceOptions) (*Service, error) {
	prog, err := compiler.Compile(src, compiler.Config{
		ArraySizes:     opts.ArraySizes,
		Codecs:         opts.Codecs,
		ChannelCodecs:  opts.ChannelCodecs,
		PrimaryChannel: opts.Primary,
	})
	if err != nil {
		return nil, err
	}
	pg, err := prog.Proc(opts.Proc)
	if err != nil {
		return nil, err
	}
	return &Service{program: prog, graph: pg, opts: opts}, nil
}

// ProcName returns the deployed process's name.
func (s *Service) ProcName() string { return s.graph.Name }

// TaskCount returns the number of tasks in the service's graph template.
func (s *Service) TaskCount() int { return len(s.graph.Template.Nodes()) }

// Graph exposes the compiled process graph for advanced wiring.
func (s *Service) Graph() *compiler.ProcGraph { return s.graph }

// Program exposes the compiled program (record descriptors, direct function
// calls).
func (s *Service) Program() *compiler.Program { return s.program }

// PlatformOptions configure a runtime platform.
type PlatformOptions struct {
	// Workers is the worker-thread count (0: GOMAXPROCS).
	Workers int
	// InProcessNet selects the user-space network stack (the paper's
	// mTCP configuration); otherwise the kernel stack is used and
	// addresses are standard "host:port" strings.
	InProcessNet bool
	// Quantum overrides the cooperative timeslice (0: the default 50µs).
	Quantum PolicyQuantum
}

// SchedStats is a snapshot of the platform scheduler's activity counters:
// enqueues, activations, steals, parks, targeted wakeups and inbox
// overflows.
type SchedStats = core.SchedStats

// PolicyQuantum is a timeslice override.
type PolicyQuantum = core.Policy

// Platform hosts deployed services.
type Platform struct {
	inner *core.Platform
	tr    netstack.Transport
}

// NewPlatform creates and starts a platform.
func NewPlatform(opts PlatformOptions) *Platform {
	var tr netstack.Transport = netstack.KernelTCP{}
	if opts.InProcessNet {
		tr = netstack.NewUserNet()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pol := opts.Quantum
	if pol.Name == "" {
		pol = core.Cooperative
	}
	return &Platform{
		inner: core.NewPlatform(core.Config{Workers: workers, Transport: tr, Policy: pol}),
		tr:    tr,
	}
}

// SchedStats returns a snapshot of the platform scheduler's counters.
func (p *Platform) SchedStats() SchedStats { return p.inner.Scheduler().Stats() }

// Close shuts the platform down.
func (p *Platform) Close() { p.inner.Close() }

// Transport exposes the platform's network stack.
func (p *Platform) Transport() netstack.Transport { return p.tr }

// Dial connects to a service deployed on this platform (or any address
// reachable through its transport).
func (p *Platform) Dial(addr string) (net.Conn, error) { return p.tr.Dial(addr) }

// Deployed is a running service.
type Deployed struct {
	svc *core.Service
}

// Addr returns the service's listen address.
func (d *Deployed) Addr() string { return d.svc.Addr() }

// Close stops the service.
func (d *Deployed) Close() { d.svc.Close() }

// Deploy installs a compiled service at listenAddr. backendAddrs supplies
// one address per element of the service's backend channel array (nil when
// the program has none).
func (p *Platform) Deploy(s *Service, listenAddr string, backendAddrs []string) (*Deployed, error) {
	cfg := core.ServiceConfig{
		Name:       s.graph.Name,
		ListenAddr: listenAddr,
		Template:   s.graph.Template,
		Dispatch:   core.PerConnection,
	}
	// Client port: the primary channel.
	primary := s.opts.Primary
	if primary == "" {
		for name, ports := range s.graph.Ports {
			if len(ports) == 1 && s.graph.Template.Ports()[ports[0]].Primary {
				primary = name
			}
		}
	}
	if primary != "" {
		cp, err := s.graph.PortIndex(primary)
		if err != nil {
			return nil, err
		}
		cfg.ClientPort = cp
	}
	// Backend channel array.
	backends := s.opts.Backends
	if backends == "" {
		for name, ports := range s.graph.Ports {
			if len(ports) > 1 || (name != primary && len(backendAddrs) == len(ports)) {
				if len(backendAddrs) == len(ports) {
					backends = name
				}
			}
		}
	}
	if backends != "" {
		ports := s.graph.Ports[backends]
		if len(backendAddrs) != len(ports) {
			return nil, fmt.Errorf("flick: channel %q needs %d backend addresses, got %d",
				backends, len(ports), len(backendAddrs))
		}
		cfg.BackendAddrs = map[int]string{}
		for i, port := range ports {
			cfg.BackendAddrs[port] = backendAddrs[i]
		}
	} else if len(backendAddrs) > 0 {
		return nil, fmt.Errorf("flick: %d backend addresses supplied but the program has no backend channel", len(backendAddrs))
	}
	svc, err := p.inner.Deploy(cfg)
	if err != nil {
		return nil, err
	}
	return &Deployed{svc: svc}, nil
}
