//go:build race

package compiler

// raceEnabled reports a -race build. The race runtime makes sync.Pool drop
// a share of Put items at random, so pooled headers (buffer.Ref, record
// owners) reallocate and allocation counts stop meaning anything.
const raceEnabled = true
