// Package leakcheck is the leak gate of the packages whose tests deploy
// services or decode from the global pool: once every test of a package
// has passed, buffer.Global must have had every refcounted region it
// handed out released (RefGets == RefPuts), and the goroutine count must
// be back to where it started. A deferred client flush holds scatter
// references across activations, so a lost round-end activation fails
// here too. A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"flick/internal/buffer"
)

// wait bounds how long a package's tests may take, after the last one
// returns, to hand back every pooled region and goroutine they started: a
// service's instances and upstream sessions wind down asynchronously.
const wait = 3 * time.Second

// Main runs the package's tests and exits with their status, turned into
// a failure if a passing run leaves regions or goroutines behind.
func Main(m *testing.M) {
	goroutines := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if err := waitLeakFree(goroutines); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// waitLeakFree waits up to wait for buffer.Global's refcounted regions to
// balance and the goroutine count to fall back to goroutines; on time out
// it describes what is left, with every goroutine's stack.
func waitLeakFree(goroutines int) error {
	deadline := time.Now().Add(wait)
	for {
		st := buffer.Global.Stats()
		n := runtime.NumGoroutine()
		if st.RefGets == st.RefPuts && n <= goroutines {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("leak gate: buffer.Global %d regions out (%d got, %d put), %d goroutines (started with %d)\n%s",
				int64(st.RefGets-st.RefPuts), st.RefGets, st.RefPuts, n, goroutines, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
