package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proxy is one exec of the program under test. The benchmark knows it only
// through its flags, its listening sockets, /proc and the admin JSON.
type proxy struct {
	cmd    *exec.Cmd
	addr   string
	admin  string // empty: no admin listener
	exited chan struct{}
	stderr bytes.Buffer
}

// freeAddr returns a loopback address that was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startProxy execs flickrun for w in front of backends — confined to cpus
// when that is not empty — and returns once a request through it draws
// want, the direct-from-origin answer to probe. The returned duration is
// exec → that first verified response.
func startProxy(bin, cpus string, w *workload, backends []string, admin bool, probe, want []byte) (*proxy, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-service", w.Service, "-listen", addr, "-workers", strconv.Itoa(proxyWorkers)}
	for _, b := range backends {
		args = append(args, "-backend", b)
	}
	args = append(args, w.flags()...)
	p := &proxy{addr: addr, exited: make(chan struct{})}
	if admin {
		if p.admin, err = freeAddr(); err != nil {
			return nil, 0, err
		}
		args = append(args, "-admin-addr", p.admin)
	}
	p.cmd = exec.Command(bin, args...)
	if cpus != "" {
		// taskset execs the program in place: same pid, same /proc entry.
		p.cmd = exec.Command("taskset", append([]string{"-c", cpus, bin}, args...)...)
	}
	p.cmd.Stderr = &p.stderr
	// The proxy must not outlive a killed harness.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("exec %s: %w", bin, err)
	}
	go func() {
		_ = p.cmd.Wait() // the exit status of a killed proxy carries nothing
		close(p.exited)
	}()
	for {
		select {
		case <-p.exited:
			return nil, 0, fmt.Errorf("flickrun %s exited during start-up: %s", strings.Join(args, " "), strings.TrimSpace(p.stderr.String()))
		default:
		}
		got, err := w.Traffic.Exchange(addr, probe, time.Second)
		if err == nil {
			if !bytes.Equal(got, want) {
				p.stop()
				return nil, 0, fmt.Errorf("%s: first response through the proxy differs from the origin's (%d vs %d bytes)", w.Name, len(got), len(want))
			}
			return p, time.Since(start), nil
		}
		if time.Since(start) > 10*time.Second {
			p.stop()
			return nil, 0, fmt.Errorf("%s: proxy not serving after 10s: %w", w.Name, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop kills the proxy and waits until it has gone.
func (p *proxy) stop() {
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.exited
}

// cpu is the user+system CPU time the proxy process has used so far.
func (p *proxy) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line, in clock ticks.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, errors.New("unparsable /proc/<pid>/stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc/<pid>/stat times")
	}
	return time.Duration(ut+st) * (time.Second / clockTicks), nil
}

// clockTicks is USER_HZ, fixed at 100 on every Linux ABI Go supports.
const clockTicks = 100

// rssHWMMiB is the proxy's peak resident set so far (VmHWM).
func (p *proxy) rssHWMMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/<pid>/status")
}

// scrape is one reading of the admin API: counter sets by name, and
// latency summaries (nanoseconds) by dimension.
type scrape struct {
	Counters map[string]map[string]float64
	Latency  map[string]map[string]float64
}

var adminClient = http.Client{Timeout: 2 * time.Second}

func (p *proxy) scrape() (*scrape, error) {
	s := &scrape{}
	for path, dst := range map[string]*map[string]map[string]float64{"/counters": &s.Counters, "/latency": &s.Latency} {
		resp, err := adminClient.Get("http://" + p.admin + path)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("admin GET %s: %s", path, resp.Status)
		}
		if err := json.Unmarshal(body, dst); err != nil {
			return nil, fmt.Errorf("admin GET %s: %w", path, err)
		}
	}
	return s, nil
}

// counter reads one counter; a set or key the program no longer exports is
// reported as missing, never as zero.
func (s *scrape) counter(set, key string) (float64, bool) {
	v, ok := s.Counters[set][key]
	return v, ok
}
