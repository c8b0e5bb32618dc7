package repro

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets compiles and vets bench/, which is its own module
// (so ./... here never reaches it) but implements and calls this
// module's internal API: a change to word.Mem or the engines' signatures
// that breaks it fails here, not only in CI's bench stage. The
// environment matches bench/run.sh: the replace directive resolves the
// parent module locally, and nothing is fetched.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a second module")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOWORK=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
