package apan

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchmarkModuleVets runs go vet over the nested benchmark module,
// which has its own go.mod and so lies outside go test ./...: an internal
// API change that breaks the benchmark then fails here, not at the next
// benchmark run. GOWORK=off builds it exactly as benchmark/run.sh does.
func TestBenchmarkModuleVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go vet needs the go command: %v", err)
	}
	// Read every file of the module, so go test's result cache, which tracks
	// the files a test opens, reruns this test when one of them changes.
	err = filepath.WalkDir("benchmark", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		_, err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("cd benchmark && go vet ./...: %v\n%s", err, out)
	}
}
