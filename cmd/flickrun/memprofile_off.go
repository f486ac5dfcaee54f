//go:build !memprofile

package main

// The default build cannot write a heap profile. The linker turns the
// runtime's memory profiling off only in a binary that can never read it;
// one that can ran mc-small at about 0.2 MiB more peak RSS, even with
// runtime.MemProfileRate set to 0 first thing in main. So -memprofile is
// built in only with -tags memprofile.
const heapProfiling = false

func writeHeapProfile(string) error { return nil }
