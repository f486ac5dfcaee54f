// Package bench regenerates every table and figure of the paper's
// evaluation (§6): the static web-server comparison, Figure 4 (HTTP load
// balancer), Figure 5 (Memcached proxy core scaling), Figure 6 (Hadoop
// aggregator core scaling), Figure 7 (scheduling-policy fairness), plus
// the post-paper experiments — scheduler scaling (schedscale), connection
// churn over the shared upstream layer (churn), the live-topology
// rebalance (rebalance: the consistent-hash ring during a B→B+1
// scale-out under load) — and the design-choice ablations (timeslice,
// parser pruning; the graph pool is priced by core's
// BenchmarkGraphPoolReuse instead). Each runner builds the complete testbed
// in-process — middlebox under test, origin servers and client fleet —
// over the transport that matches the measured configuration (kernel
// loopback for "FLICK"/baselines, the user-space stack for "FLICK mTCP").
//
// Absolute numbers are not comparable to the paper's 16-core Xeon testbed
// with 10 GbE; the reproduction targets the figures' shapes (who wins, by
// roughly what factor, where peaks and crossovers fall).
//
// # Ownership
//
// Bench clients receive zero-copy responses (memcache.Conn.RoundTrip,
// decoded records in sinks) and Release every message they consume, so a
// bench measures parsing and forwarding — not pool-drain allocation — and
// refgets == refputs holds at the end of every run.
//
// # Counters in tables
//
// Tables report the layers' metrics.CounterSets where they explain the
// result: scheduler stats (scheduled, executed, stolen, parks, wakeups,
// overflow) in schedscale/ablations, pool counters (refgets, refputs,
// views, coalesced, allocs/req) in fig4/fig5, and upstream counters
// (dials, reuse, redials, failfast, probes, drained) in churn/rebalance.
package bench
