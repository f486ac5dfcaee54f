// Package core implements the FLICK platform's task-graph runtime (§5 of
// the paper): values flow through bounded task channels between
// cooperatively scheduled tasks; graphs are built from templates, pooled,
// and bound to network connections by the application and graph
// dispatchers; a fixed pool of worker threads executes runnable tasks with
// per-worker lock-free deques, task→worker affinity and work stealing.
//
// # Layers
//
//   - Scheduler: per-worker Chase–Lev deques, bounded overflow inboxes,
//     per-worker parking with an idle bitmap, a fairness tick so no
//     queue starves, and scheduling rounds: a task returning RunDefer runs
//     once more when its worker's round ends (sched.go, deque.go,
//     inbox.go).
//   - Graphs: Template (blueprint) → Instance (tasks + channels) with a
//     GraphPool recycling instances across connections (graph.go,
//     instance.go, pool.go).
//   - Dispatch: Platform listens per Service; the graph dispatcher binds
//     each accepted connection (and its backend connections or upstream
//     leases) to an instance (platform.go).
//   - Topology: a Service deployed with BackendPorts + Topology routes
//     keys through a live consistent-hash ring and accepts
//     UpdateBackends while serving (topology.go); compiled
//     `hash(k) mod len(backends)` expressions consult the instance's
//     router snapshot.
//
// # Zero-copy / ownership invariants
//
// Values flowing through a Chan are refcounted views over pooled wire
// bytes: Push retains a value's backing region for the consumer and each
// task Releases after processing, so the pooled bytes recycle exactly
// when the last task drops the message. Input tasks read into pooled
// refcounted chunks handed to the parse queue by reference (or, for
// upstream sessions, drain delivered response views by reference); output
// tasks accumulate encoded messages in a pooled scatter list — forwarded
// messages as references to their original wire bytes — and flush with
// one vectored write, the client-facing output once per scheduling round
// while the client is still owed responses. An instance is Reset only from
// the finished phase (every task ended) or the bound phase (no task ever
// ran), and back in idle no task body runs until the next Start — the one
// release path, GraphPool.Put, guarantees it, and it is what makes buffer
// reuse across connections safe.
//
// # Counters
//
// Scheduler.Stats exposes scheduling counters as a metrics.CounterSet via
// SchedStats.Metrics: scheduled, executed, stolen, parks, wakeups,
// overflow, deferred, round_flushes. Data-path pool counters live in
// buffer.Pool.Counters; the upstream layer's in upstream.Manager.Counters.
package core
