package loadgen

import (
	"os/exec"
	"strings"
	"testing"
)

// The load must not change when the program under test does: the load
// generator and the origins import nothing of flick's, and the harness
// reaches flick/internal only through benchmark/layers.
func TestLoadImportsNoFlickPackage(t *testing.T) {
	deps := goList(t, "-deps", ".")
	for _, d := range deps {
		if strings.HasPrefix(d, "flick/") && d != "flick/benchmark/loadgen" {
			t.Errorf("loadgen depends on %s", d)
		}
	}
	for _, imp := range goList(t, "-f", `{{join .Imports "\n"}}`, "..") {
		if strings.HasPrefix(imp, "flick/") && !strings.HasPrefix(imp, "flick/benchmark/") {
			t.Errorf("the harness imports %s directly; only benchmark/layers may", imp)
		}
	}
}

func goList(t *testing.T, args ...string) []string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
	if err != nil {
		t.Fatalf("go list %v: %v", args, err)
	}
	return strings.Fields(string(out))
}
