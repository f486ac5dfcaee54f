package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// httpStack lists the standard-library packages flickrun must not link:
// the admin API and the topology poll speak the platform's own HTTP/1.1
// codec, and these (with what they pull in: TLS, X.509, HTTP/2, MIME)
// would roughly double the binary.
var httpStack = []string{"net/http", "crypto/tls", "crypto/x509"}

// TestFlickrunLinksNoHTTPStack pins the binary's diet: on failure it names
// the flick package whose import chain reaches the offender.
func TestFlickrunLinksNoHTTPStack(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command(gobin, "list", "-deps", "-f", "{{.ImportPath}} {{join .Imports \" \"}}", "flick/cmd/flickrun").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	imports := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		imports[f[0]] = f[1:]
	}
	for _, bad := range httpStack {
		if _, linked := imports[bad]; !linked {
			continue
		}
		t.Errorf("flickrun links %s: %s", bad, chainTo(imports, bad))
	}
}

// chainTo returns the import chain from the first flick package that
// leaves the module towards bad, e.g. "flick/internal/x -> expvar ->
// net/http".
func chainTo(imports map[string][]string, bad string) string {
	for pkg, deps := range imports {
		if !strings.HasPrefix(pkg, "flick/") {
			continue
		}
		for _, d := range deps {
			if strings.HasPrefix(d, "flick/") {
				continue
			}
			if path := pathTo(imports, d, bad, map[string]bool{}); path != nil {
				return strings.Join(append([]string{pkg}, path...), " -> ")
			}
		}
	}
	return "(no flick package found on the chain)"
}

// pathTo finds an import path from from to bad by depth-first search.
func pathTo(imports map[string][]string, from, bad string, seen map[string]bool) []string {
	if from == bad {
		return []string{bad}
	}
	if seen[from] {
		return nil
	}
	seen[from] = true
	for _, d := range imports[from] {
		if path := pathTo(imports, d, bad, seen); path != nil {
			return append([]string{from}, path...)
		}
	}
	return nil
}

// TestPollURLMustBeHTTP checks that flickrun refuses a non-http
// -topology-poll-url at start-up, exiting 1 with the URL in its message.
func TestPollURLMustBeHTTP(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "flickrun")
	if out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const url = "https://x"
	cmd := exec.Command(bin, "-service", "memcachedproxy", "-listen", "127.0.0.1:0",
		"-live-topology", "-backend", "127.0.0.1:1", "-topology-poll-url", url)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 1 {
		t.Fatalf("flickrun -topology-poll-url %s: %v, want exit status 1\n%s", url, err, stderr.String())
	}
	if !strings.Contains(stderr.String(), url) {
		t.Fatalf("error does not name the URL: %q", stderr.String())
	}
}
