package experiments

import (
	"math"
	"reflect"
	"testing"

	"impress/internal/core"
	"impress/internal/resultstore"
	"impress/internal/sim"
	"impress/internal/trace"
)

// TestStoreSpecKeyIsExact pins the runner's key memo to a fresh
// derivation: for every spec, in either order of a signed-zero pair,
// storeSpec's key equals resultstore.SpecFor(r.config(spec)) keyed
// afresh, under exact and sampled clocks.
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
					if got, want := r.storeSpec(s).Key(), sp.Key(); got != want {
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

// TestHasNegZeroCoversEverySpecFloat guards the memo's signed-zero
// bypass against a float field added to resultstore.Spec later: every
// float64 field, at any depth, set to -0 must be detected.
func TestHasNegZeroCoversEverySpecFloat(t *testing.T) {
	var sp resultstore.Spec
	var walk func(v reflect.Value, path string)
	found := 0
	walk = func(v reflect.Value, path string) {
		for i := range v.NumField() {
			f, name := v.Field(i), path+"."+v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Struct:
				walk(f, name)
			case reflect.Float64:
				found++
				f.SetFloat(math.Copysign(0, -1))
				if !hasNegZero(sp) {
					t.Errorf("hasNegZero misses -0 in Spec%s", name)
				}
				f.SetFloat(0)
			case reflect.Float32:
				t.Errorf("Spec%s is a float32; extend hasNegZero", name)
			}
		}
	}
	walk(reflect.ValueOf(&sp).Elem(), "")
	if found == 0 {
		t.Fatal("found no float fields in resultstore.Spec")
	}
	if hasNegZero(resultstore.Spec{}) {
		t.Fatal("a zero Spec holds no negative zero")
	}
}
