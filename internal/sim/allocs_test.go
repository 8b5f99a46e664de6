package sim

import (
	"testing"

	"impress/internal/core"
)

// TestSteadyStateDoesNotAllocate pins the allocation-free miss path: once
// a STREAM (copy) or pointer-chasing (mcf) run is past its cold start,
// simulating on — MSHRs from the slab, MemOps from the ROB ring, hit,
// writeback and demand queues on fixed or reused storage, mitigations
// into pre-sized queues — allocates nothing, under the trackers of the
// performance sweep.
func TestSteadyStateDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		workload string
		kind     core.Kind
		tracker  TrackerKind
	}{
		{"copy", core.NoRP, TrackerNone},
		{"copy", core.ImpressN, TrackerGraphene},
		{"copy", core.ImpressP, TrackerPARA},
		{"mcf", core.ImpressP, TrackerGraphene},
		{"mcf", core.ExPress, TrackerMINT},
	} {
		s := newSimulator(clockConfig(t, tc.workload, tc.kind, tc.tracker, 4000))
		for s.cores[0].Retired() < 20_000 {
			s.advance(0)
		}
		allocs := testing.AllocsPerRun(5, func() {
			for i := 0; i < 2000; i++ {
				s.advance(0)
			}
		})
		if allocs != 0 {
			t.Errorf("%s/%v/%s: %.1f allocations per 2000 steady-state macro cycles, want 0",
				tc.workload, tc.kind, tc.tracker, allocs)
		}
	}
}
