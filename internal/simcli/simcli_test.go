package simcli

import (
	"strings"
	"testing"

	"impress/internal/sim"
)

// TestParseClock pins the -clock vocabulary: every mode the simulator
// offers parses, and anything else — "lockstep" included, since the
// lockstep cross-check is a test driver in package sim, not a clock
// mode — is rejected with a message listing the valid names.
func TestParseClock(t *testing.T) {
	for name, want := range map[string]sim.ClockMode{
		"event":   sim.ClockEventDriven,
		"cycle":   sim.ClockCycleAccurate,
		"sampled": sim.ClockSampled,
	} {
		if got, err := ParseClock(name); err != nil || got != want {
			t.Errorf("ParseClock(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, name := range []string{"lockstep", "bogus", ""} {
		_, err := ParseClock(name)
		if err == nil {
			t.Fatalf("ParseClock(%q) accepted an unknown mode", name)
		}
		if !strings.Contains(err.Error(), "event, cycle or sampled") {
			t.Errorf("ParseClock(%q) error %q does not list the valid modes", name, err)
		}
	}
}
