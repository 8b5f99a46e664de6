package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"impress/internal/core"
	"impress/internal/resultstore"
	"impress/internal/sim"
	"impress/internal/trace"
)

// unmemoizedKey derives a store spec's result key the long way, as
// resultstore defines it: the sha256 of the key preamble and the spec's
// JSON encoding, in hex.
func unmemoizedKey(t *testing.T, sp resultstore.Spec) resultstore.Key {
	t.Helper()
	canon, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(append([]byte("impress-resultstore/v1\n"), canon...))
	return resultstore.Key(hex.EncodeToString(sum[:]))
}

// TestStoreSpecKeyIsExact pins the memoized key behind storeSpec to an
// unmemoized derivation: for every spec, in either order of a
// signed-zero pair, storeSpec's key equals the hash of
// resultstore.SpecFor(r.config(spec))'s JSON, under exact and sampled
// clocks.
func TestStoreSpecKeyIsExact(t *testing.T) {
	w, err := trace.WorkloadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	negZero := math.Copysign(0, -1)
	negAlpha := core.NewDesign(core.ExPress)
	negAlpha.Alpha = negZero
	specs := []RunSpec{
		{Workload: w, Tracker: sim.TrackerGraphene, DesignTRH: TRH(0)},
		{Workload: w, Tracker: sim.TrackerGraphene, DesignTRH: TRH(negZero)},
		{Workload: w, Tracker: sim.TrackerGraphene, DesignTRH: TRH(0)},
		{Workload: w, Tracker: sim.TrackerGraphene, RFMTH: RFM(0)},
		{Workload: w, Tracker: sim.TrackerGraphene},
		{Workload: w, Design: core.NewDesign(core.ExPress), Tracker: sim.TrackerMINT},
		{Workload: w, Design: negAlpha, Tracker: sim.TrackerMINT},
	}
	reversed := append([]RunSpec(nil), specs...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	runners := map[string]func() *Runner{
		"exact":        func() *Runner { return NewRunner(tinyScale()) },
		"sampled":      func() *Runner { return &Runner{Scale: tinyScale(), Clock: sim.ClockSampled, MaxRelError: 0.02} },
		"sampled-zero": func() *Runner { return &Runner{Scale: tinyScale(), Clock: sim.ClockSampled} },
		"sampled-neg-zero": func() *Runner {
			return &Runner{Scale: tinyScale(), Clock: sim.ClockSampled, MaxRelError: negZero}
		},
	}
	for name, newRunner := range runners {
		for _, order := range [][]RunSpec{specs, reversed} {
			r := newRunner()
			for range 2 {
				for i, s := range order {
					sp, err := resultstore.SpecFor(r.config(s))
					if err != nil {
						t.Fatal(err)
					}
					if got, want := r.storeSpec(s).Key(), unmemoizedKey(t, sp); got != want {
						t.Errorf("%s: spec %d: memoized key %s, fresh key %s", name, i, got[:12], want[:12])
					}
				}
			}
		}
	}
	r := NewRunner(tinyScale())
	if r.storeSpec(specs[0]).Key() == r.storeSpec(specs[1]).Key() {
		t.Fatal("TRH 0 and -0 must key apart: they marshal differently")
	}
}

// TestScaleUniversesFitKeyMemo pins the spec universe of each scale:
// resultstore's key memo is sized to hold the three together (its
// TestKeyMemoIsBounded), so a universe that grows must revisit that
// bound.
func TestScaleUniversesFitKeyMemo(t *testing.T) {
	want := map[string]int{"quick": 282, "standard": 940, "full": 940}
	for name, n := range want {
		scale, err := ScaleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs, err := SpecsFor(NewRunner(scale), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(specs) != n {
			t.Errorf("the %s universe has %d specs, want %d: revisit resultstore's keyMemoEntries", name, len(specs), n)
		}
	}
}
