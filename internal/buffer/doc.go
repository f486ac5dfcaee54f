// Package buffer provides pooled byte buffers, refcounted regions, ring
// buffers, chunked byte queues and scatter lists used throughout the FLICK
// runtime.
//
// The FLICK platform promises allocation-free steady-state operation: all
// buffers that carry network payloads are drawn from pre-allocated pools
// (§5 of the paper: "All buffers are drawn from a pre-allocated pool to
// avoid dynamic memory allocation"). This package is that pool, plus the
// byte containers built on top of it.
//
// # Zero-copy / ownership invariants
//
//   - A Ref is a pool-backed refcounted byte region. Retain/Release pair
//     strictly; releasing below zero panics (double free) and a region
//     only recycles when its count reaches zero — the pool counters
//     (refgets vs refputs) make leaks visible.
//   - A Queue owns the refs of the chunks appended to it by reference
//     (AppendRef / AppendRead / AppendView); Reset or consumption drops
//     them. TakeRef consumes a span as one contiguous retained view whose
//     ownership passes to the caller (cross-chunk spans coalesce into a
//     fresh pooled region, counted by `coalesced`).
//   - AppendRead compacts short reads instead of pinning a near-empty
//     pooled chunk per trickled segment; AppendRef clips chunk capacity so
//     later appends can never scribble into a producer-retained tail.
//   - A Scatter holds encoded output spans plus the region references
//     keeping them alive until the flush's Reset releases them.
//
// # Counters
//
// Pool.Counters exposes the pool as a metrics.CounterSet: gets, puts,
// misses, oversized, plus the zero-copy counters refgets, refputs, views,
// coalesced. The steady state of a well-behaved workload shows
// refgets == refputs and oversized == 0.
package buffer
