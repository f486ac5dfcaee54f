//go:build memprofile

package main

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// heapProfiling reports whether this binary can write -memprofile.
const heapProfiling = true

// writeHeapProfile collects garbage, so the profile's in-use figures are
// the live heap of this moment, and writes a heap profile to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
