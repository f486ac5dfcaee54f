package lang

import (
	"testing"

	"flick/internal/leakcheck"
)

// TestMain gates the package on leaks (see leakcheck).
func TestMain(m *testing.M) { leakcheck.Main(m) }
