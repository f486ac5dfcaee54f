// Package flick is a Go reproduction of "FLICK: Developing and Running
// Application-Specific Network Services" (Alim et al., USENIX ATC 2016):
// a domain-specific language for application-level middlebox services and a
// runtime platform that executes compiled FLICK programs as cooperatively
// scheduled task graphs.
//
// This package is the public facade. It compiles FLICK source to deployable
// services (through internal/apps: Service and ServiceOptions are aliases
// of the descriptor the packaged services use, and Platform.Deploy is its
// Deploy), hosts them on platforms backed by either the kernel TCP stack
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
	"net"
	"runtime"

	"flick/internal/apps"
	"flick/internal/compiler"
	"flick/internal/core"
	"flick/internal/grammar"
	"flick/internal/netstack"
	"flick/internal/proto/hadoop"
	phttp "flick/internal/proto/http"
	"flick/internal/proto/memcache"
)

// Codec binds a record type to wire formats: Decode parses inbound bytes,
// Encode serialises outbound values; both build records of one layout. A
// channel typed `request/response` reads requests and writes responses.
// Built-in constructors cover the protocols used by the paper's services;
// record types whose declarations carry complete serialisation annotations
// need no Codec at all (the compiler synthesises one from the program, §4.2).
type Codec = compiler.CodecPair

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

// ServiceOptions parameterise compilation of a FLICK program: process,
// array sizes, codecs, and the client and backend channel names.
type ServiceOptions = apps.Options

// Service is a compiled, deployable FLICK program: the same descriptor the
// packaged services of internal/apps are built on.
type Service = apps.Service

// CompileService parses, type-checks and compiles FLICK source, inferring
// the client channel (the primary port) and the backend channel
// (ServiceOptions.Backends, or else the only other channel).
func CompileService(src string, opts ServiceOptions) (*Service, error) {
	return apps.Compile(src, opts)
}

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
type Deployed = core.Service

// Deploy installs a compiled service at listenAddr. backendAddrs supplies
// one address per element of the service's backend channel (nil when the
// program has none).
func (p *Platform) Deploy(s *Service, listenAddr string, backendAddrs []string) (*Deployed, error) {
	return s.Deploy(p.inner, listenAddr, backendAddrs)
}
