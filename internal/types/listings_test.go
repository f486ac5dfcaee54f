package types_test

import (
	"testing"

	"flick/internal/apps"
	"flick/internal/lang"
	"flick/internal/types"
)

// TestHTTPStyleProgramChecks checks the HTTP programs the services
// compile, typed by what their channels carry. They declare only the
// fields they touch (§4.2: explicit field accesses let the compiler prune
// the parser).
func TestHTTPStyleProgramChecks(t *testing.T) {
	for name, src := range map[string]string{
		"ListingHTTPLB":   lang.ListingHTTPLB,
		"StaticWebSource": apps.StaticWebSource,
	} {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if _, err := types.Check(prog); err != nil {
			t.Fatalf("%s: check: %v", name, err)
		}
	}
}
