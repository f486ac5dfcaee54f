package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"flick/internal/core"
	"flick/internal/value"
)

// Scheduler-scaling microbenchmark: a fan-out/fan-in task graph (sources →
// stage tasks → one sink) driven through the real scheduler and channel
// wakeup path. It measures whether scheduled-ops throughput grows with the
// worker count — the paper's core scaling claim (§6), isolated from
// protocol parsing and the network stack.

// SchedScaleConfig parameterises one scaling cell.
type SchedScaleConfig struct {
	// Workers is the scheduler worker count.
	Workers int
	// Sources is the number of producer tasks.
	Sources int
	// Stages is the number of fan-out stage tasks (the parallel width).
	Stages int
	// ItemsPerSource is how many items each source emits.
	ItemsPerSource int
	// WorkPerItem is the size of the synthetic per-item CPU spin in the
	// stage tasks (0 selects a default that makes one item ≈1µs).
	WorkPerItem int
	// Policy is the scheduling discipline (zero value: Cooperative).
	Policy core.Policy
}

// SchedScalePoint is one measured cell.
type SchedScalePoint struct {
	Workers int
	Items   uint64 // items processed by the stage tasks
	Elapsed time.Duration
	Stats   core.SchedStats
}

// ItemsPerSec returns stage-item throughput.
func (p SchedScalePoint) ItemsPerSec() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Items) / p.Elapsed.Seconds()
}

// OpsPerSec returns scheduled-activation throughput.
func (p SchedScalePoint) OpsPerSec() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Stats.Executed) / p.Elapsed.Seconds()
}

// spin burns CPU deterministically (the compiler cannot elide the result).
var spinSink atomic.Uint64

func spin(n int) {
	acc := uint64(1)
	for i := 0; i < n; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	spinSink.Store(acc)
}

// RunSchedulerScaling runs one fan-out/fan-in cell and reports throughput
// plus the scheduler's contention counters.
func RunSchedulerScaling(cfg SchedScaleConfig) SchedScalePoint {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Sources <= 0 {
		cfg.Sources = 8
	}
	if cfg.Stages <= 0 {
		cfg.Stages = 4 * cfg.Workers
	}
	if cfg.ItemsPerSource <= 0 {
		cfg.ItemsPerSource = 1024
	}
	if cfg.WorkPerItem <= 0 {
		cfg.WorkPerItem = 400
	}
	pol := cfg.Policy
	if pol.Name == "" {
		pol = core.Cooperative
	}
	s := core.NewScheduler(cfg.Workers, pol)

	stageChans := make([]*core.Chan, cfg.Stages)
	sinkChan := core.NewChan(1024)
	var stageItems atomic.Uint64
	var stagesLeft atomic.Int32
	stagesLeft.Store(int32(cfg.Stages))
	done := make(chan struct{})

	// Sink: fan-in consumer; completion closes done.
	sink := s.NewTask("sink", func(ctx *core.ExecCtx) core.RunResult {
		for {
			_, ok, closed := sinkChan.Pop()
			if closed {
				close(done)
				return core.RunDone
			}
			if !ok {
				return core.RunIdle
			}
			if ctx.CountItem() {
				return core.RunYield
			}
		}
	})

	// Stage tasks: pop, spin, forward to the sink.
	work := cfg.WorkPerItem
	for i := range stageChans {
		ch := core.NewChan(256)
		stageChans[i] = ch
		task := s.NewTask(fmt.Sprintf("stage-%d", i), func(ctx *core.ExecCtx) core.RunResult {
			for {
				v, ok, closed := ch.Pop()
				if closed {
					if stagesLeft.Add(-1) == 0 {
						sinkChan.Close()
					}
					return core.RunDone
				}
				if !ok {
					return core.RunIdle
				}
				spin(work)
				stageItems.Add(1)
				sinkChan.Push(v)
				if ctx.CountItem() {
					return core.RunYield
				}
			}
		})
		ch.SetConsumer(task, s)
	}
	sinkChan.SetConsumer(sink, s)

	// Source tasks: emit round-robin over the stage channels.
	var sourcesLeft atomic.Int32
	sourcesLeft.Store(int32(cfg.Sources))
	payload := value.Int(1)
	sources := make([]*core.Task, 0, cfg.Sources)
	for i := 0; i < cfg.Sources; i++ {
		emitted := 0
		next := i % cfg.Stages
		quota := cfg.ItemsPerSource
		task := s.NewTask(fmt.Sprintf("source-%d", i), func(ctx *core.ExecCtx) core.RunResult {
			for emitted < quota {
				stageChans[next].Push(payload)
				next = (next + 1) % cfg.Stages
				emitted++
				if ctx.CountItem() {
					return core.RunYield
				}
			}
			if sourcesLeft.Add(-1) == 0 {
				for _, ch := range stageChans {
					ch.Close()
				}
			}
			return core.RunDone
		})
		sources = append(sources, task)
	}

	start := time.Now()
	s.Start()
	for _, task := range sources {
		s.Schedule(task)
	}
	<-done
	elapsed := time.Since(start)
	st := s.Stats()
	s.Stop()
	return SchedScalePoint{
		Workers: cfg.Workers,
		Items:   stageItems.Load(),
		Elapsed: elapsed,
		Stats:   st,
	}
}

// SchedScaleTable renders a worker sweep.
func SchedScaleTable(points []SchedScalePoint) *Table {
	t := &Table{
		Title:   "Scheduler scaling: fan-out/fan-in task graph",
		Columns: []string{"workers", "items/s", "ops/s", "steals", "parks", "wakeups", "overflow"},
		Notes: []string{
			"per-worker Chase–Lev deques + bounded inboxes; wakeups target one parked worker",
			"throughput should grow with workers until the sink task serialises (§6 scaling claim)",
		},
	}
	for _, p := range points {
		t.Add(
			fmt.Sprint(p.Workers),
			fmtReqs(p.ItemsPerSec()),
			fmtReqs(p.OpsPerSec()),
			fmt.Sprint(p.Stats.Stolen),
			fmt.Sprint(p.Stats.Parks),
			fmt.Sprint(p.Stats.Wakeups),
			fmt.Sprint(p.Stats.Overflow),
		)
	}
	return t
}
