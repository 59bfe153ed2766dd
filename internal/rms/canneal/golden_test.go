package canneal

import (
	"testing"

	"repro/internal/rms/rmstest"
)

// TestRunGolden pins Run's exact output bits and op counts across every
// fault mode, so a change to the annealing loop or its swap scoring
// cannot move a single accept decision unnoticed. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/rms/canneal.
func TestRunGolden(t *testing.T) {
	rmstest.Golden(t, newBench(t), 16)
}
