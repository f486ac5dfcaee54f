package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flick/internal/lang"
)

// TestCompilesListings compiles every listing with the flags the usage
// text gives for it.
func TestCompilesListings(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		file, src string
		flags     []string
		want      string // a line of the -dump output
	}{
		{"listing1.flick", lang.Listing1, []string{"-array", "backends=2"},
			"client_in codec=cmd"},
		{"proxy.flick", lang.ListingProxy, []string{"-array", "backends=2", "-codec", "cmd=memcached"},
			"client_in codec=memcached.cmd"},
		{"listing3.flick", lang.Listing3, []string{"-array", "mappers=4", "-codec", "kv=hadoop-kv"},
			"reducer_out codec=hadoop.kv"},
		{"httplb.flick", lang.ListingHTTPLB, []string{"-array", "backends=2",
			"-codec", "request=http-request", "-codec", "response=http-response"},
			"backends[1]_in codec=http.response"},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join(dir, tc.file)
			if err := os.WriteFile(path, []byte(tc.src), 0o644); err != nil {
				t.Fatal(err)
			}
			var out, errOut bytes.Buffer
			args := append(append([]string{"-dump"}, tc.flags...), path)
			if err := run(args, &out, &errOut); err != nil {
				t.Fatalf("flickc %v: %v\n%s", args, err, errOut.String())
			}
			if !strings.Contains(out.String(), "type check OK") || !strings.Contains(out.String(), tc.want) {
				t.Fatalf("flickc %v output lacks %q:\n%s", args, tc.want, out.String())
			}
		})
	}
}

func TestUnknownCodecRejected(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-codec", "cmd=gopher", "x.flick"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), `unknown codec "gopher"`) {
		t.Fatalf("err = %v", err)
	}
}
