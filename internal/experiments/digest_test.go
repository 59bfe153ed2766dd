package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// digestPath pins a SHA-256 of every experiment's rendered output at
// DefaultConfig, one "<id> <hex>" line per id in IDs() order.
var digestPath = filepath.Join("testdata", "digests.txt")

// TestExperimentDigests pins the bytes of all experiments, including the
// solver- and kernel-driven ones the golden files leave out, so an
// optimization of the hot path cannot move any number unnoticed.
// Regenerate with `make golden` (UPDATE_GOLDEN=1) after an intentional
// model change.
func TestExperimentDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	ids := IDs()
	results, err := RunMany(context.Background(), DefaultConfig(), ids)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, r := range results {
		var buf bytes.Buffer
		if err := RenderAll(&buf, []RunResult{r}); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %x\n", r.ID, sha256.Sum256(buf.Bytes()))
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(digestPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("missing digest file (run `make golden` to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("experiment output drifted from %s; if intentional, run `make golden` and update EXPERIMENTS.md\n--- got ---\n%s--- want ---\n%s",
			digestPath, got.String(), want)
	}
}
