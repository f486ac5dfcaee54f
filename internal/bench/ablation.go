package bench

import (
	"fmt"
	"time"

	"flick/internal/buffer"
	"flick/internal/core"
	"flick/internal/grammar"
	"flick/internal/value"
)

// Ablations quantify the design choices DESIGN.md calls out: the timeslice
// quantum and application-specific parser pruning.

// TimeslicePoint reports the fairness/throughput trade-off for one quantum.
type TimeslicePoint struct {
	Quantum         time.Duration
	LightCompletion time.Duration
	Total           time.Duration
}

// RunTimesliceAblation sweeps the cooperative quantum over the paper's
// 10–100 µs range (§5) using the Figure 7 workload.
func RunTimesliceAblation(quanta []time.Duration, workers int) []TimeslicePoint {
	if len(quanta) == 0 {
		quanta = []time.Duration{
			10 * time.Microsecond, 50 * time.Microsecond,
			100 * time.Microsecond, time.Millisecond,
		}
	}
	var out []TimeslicePoint
	for _, q := range quanta {
		pts, _ := RunFig7(Fig7Config{
			Tasks:        64,
			ItemsPerTask: 64,
			Workers:      workers,
			Policies:     []core.Policy{core.CooperativeQuantum(q)},
		})
		out = append(out, TimeslicePoint{
			Quantum:         q,
			LightCompletion: pts[0].LightCompletion,
			Total:           pts[0].Total,
		})
	}
	return out
}

// TimesliceTable renders the sweep.
func TimesliceTable(points []TimeslicePoint) *Table {
	t := &Table{
		Title:   "Ablation: timeslice quantum (Fig 7 workload)",
		Columns: []string{"quantum", "light-done", "total"},
		Notes:   []string{"smaller quanta improve light-task latency at slightly higher scheduling overhead"},
	}
	for _, p := range points {
		t.Add(p.Quantum.String(), p.LightCompletion.Round(time.Millisecond).String(),
			p.Total.Round(time.Millisecond).String())
	}
	return t
}

// PruningPoint compares full-fidelity parsing against field-pruned parsing.
type PruningPoint struct {
	Pruned   bool
	MsgsPerS float64
}

// RunParserPruningAblation decodes a Memcached message stream with the full
// codec and with a key-only pruned codec (§4.2's application-specific
// parser specialisation).
func RunParserPruningAblation(messages int, valueSize int) []PruningPoint {
	full := grammar.MemcachedUnit().MustCompile()
	pruned := grammar.MemcachedUnit().MustCompile(grammar.Needed("key"))

	// One representative message with a large body.
	rec := full.Desc().New()
	rec.SetField("magic_code", value.Int(grammar.MemcachedMagicRequest))
	rec.SetField("opcode", value.Int(grammar.MemcachedOpGet))
	rec.SetField("key", value.Bytes([]byte("pruning-bench-key")))
	rec.SetField("value", value.Bytes(make([]byte, valueSize)))
	wire, err := full.Encode(nil, rec)
	if err != nil {
		panic(err)
	}

	run := func(codec *grammar.Codec, prunedRun bool) PruningPoint {
		q := buffer.NewQueue(nil)
		dec := codec.NewDecoder()
		start := time.Now()
		for i := 0; i < messages; i++ {
			q.Append(wire)
			msg, ok, err := dec.Decode(q)
			if !ok || err != nil {
				panic(fmt.Sprint(ok, err))
			}
			// Release the record's chunk reference so the pool recycles in
			// steady state; leaking it would measure allocation, not parsing.
			msg.Release()
		}
		el := time.Since(start)
		return PruningPoint{Pruned: prunedRun, MsgsPerS: float64(messages) / el.Seconds()}
	}
	return []PruningPoint{run(full, false), run(pruned, true)}
}

// PruningTable renders the comparison.
func PruningTable(points []PruningPoint) *Table {
	t := &Table{
		Title:   "Ablation: application-specific parser pruning",
		Columns: []string{"pruned", "msgs/s"},
		Notes:   []string{"§4.2: unneeded fields are skipped rather than materialised"},
	}
	for _, p := range points {
		t.Add(fmt.Sprint(p.Pruned), fmtReqs(p.MsgsPerS))
	}
	return t
}
