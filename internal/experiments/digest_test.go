package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// digestPath pins a SHA-256 of every experiment's rendered output at
// DefaultConfig, one "<id> <hex>" line per id in IDs() order.
var digestPath = filepath.Join("testdata", "digests.txt")

// TestExperimentDigests pins the bytes of all experiments, including the
// solver- and kernel-driven ones the golden files leave out, so an
// optimization of the hot path cannot move any number unnoticed. It
// reads the cold render it shares with TestParallelEquivalence.
// Regenerate with `make golden` (UPDATE_GOLDEN=1) after an intentional
// model change.
func TestExperimentDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	run := sharedColdRender()
	if run.err != nil {
		t.Fatal(run.err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(digestPath, run.lines, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkDigests(t, run.lines)
}

// digestLines renders each result on its own and returns one
// "<id> <hex>" line per result, in digestPath's format.
func digestLines(results []RunResult) ([]byte, error) {
	var got bytes.Buffer
	for _, r := range results {
		var buf bytes.Buffer
		if err := RenderAll(&buf, []RunResult{r}); err != nil {
			return nil, err
		}
		fmt.Fprintf(&got, "%s %x\n", r.ID, sha256.Sum256(buf.Bytes()))
	}
	return got.Bytes(), nil
}

// checkDigests fails t unless got, digestLines of a run of every id at
// DefaultConfig, equals digestPath.
func checkDigests(t *testing.T, got []byte) {
	t.Helper()
	want := readDigests(t)
	if !bytes.Equal(got, want) {
		t.Errorf("experiment output drifted from %s; if intentional, run `make golden` and update EXPERIMENTS.md\n--- got ---\n%s--- want ---\n%s",
			digestPath, got, want)
	}
}

// readDigests returns digestPath's contents.
func readDigests(t *testing.T) []byte {
	t.Helper()
	want, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("missing digest file (run `make golden` to create): %v", err)
	}
	return want
}

// digestsByID splits "<id> <hex>" lines into a map from id to hex.
func digestsByID(lines []byte) map[string]string {
	digests := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(lines)), "\n") {
		id, hex, _ := strings.Cut(line, " ")
		digests[id] = hex
	}
	return digests
}
