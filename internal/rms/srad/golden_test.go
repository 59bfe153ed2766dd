package srad

import (
	"testing"

	"repro/internal/rms/rmstest"
)

// TestRunGolden pins Run's exact output bits and op counts across every
// fault mode. Regenerate with UPDATE_GOLDEN=1 go test ./internal/rms/srad.
func TestRunGolden(t *testing.T) {
	rmstest.Golden(t, New(), 16)
}
