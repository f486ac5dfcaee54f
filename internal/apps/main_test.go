package apps

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"flick/internal/buffer"
)

// leakWait bounds how long the package's tests may take, after the last
// one returns, to hand back every pooled region and goroutine they started:
// a service's instances and upstream sessions wind down asynchronously.
const leakWait = 3 * time.Second

// TestMain is the package's leak gate: once every test has passed,
// buffer.Global must have had every refcounted region it handed out
// released (RefGets == RefPuts), and the goroutine count must be back to
// where it started. A deferred client flush holds scatter references
// across activations, so a lost round-end activation fails here too.
func TestMain(m *testing.M) {
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

// waitLeakFree waits up to leakWait for buffer.Global's refcounted regions
// to balance and the goroutine count to fall back to goroutines; on time
// out it describes what is left, with every goroutine's stack.
func waitLeakFree(goroutines int) error {
	deadline := time.Now().Add(leakWait)
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
