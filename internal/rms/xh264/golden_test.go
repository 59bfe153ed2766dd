package xh264

import (
	"testing"

	"repro/internal/rms/rmstest"
)

// TestRunGolden pins Run's exact output bits and op counts across every
// fault mode. Regenerate with UPDATE_GOLDEN=1 go test ./internal/rms/xh264.
func TestRunGolden(t *testing.T) {
	rmstest.Golden(t, New(), 26)
}
