package resultstore

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// tryKey returns derive's key, or reports that it panicked (a NaN
// float does not marshal).
func tryKey(derive func() Key) (k Key, panicked bool) {
	defer func() {
		if recover() != nil {
			k, panicked = "", true
		}
	}()
	return derive(), false
}

// freshKey derives s's key without the memo.
func freshKey(s Spec) func() Key {
	return func() Key { return keyOf(keyPreamble, s.canonicalJSON()) }
}

// TestMemoKeyIsExact pins the key memo to the unmemoized derivation:
// with 0, -0 and NaN in each float field of Spec, in either call order
// and on repeat calls, Spec.Key equals keyOf over the spec's canonical
// JSON (or panics exactly when it does), and 0 and -0 key apart
// exactly when they marshal apart.
func TestMemoKeyIsExact(t *testing.T) {
	base := mustSpec(t, testConfig(t))
	base.Seed = 1 << 41 // a spec no other test keys first
	fields := map[string]func(*Spec, float64){
		"DesignTRH":    func(s *Spec, v float64) { s.DesignTRH = v },
		"Design.Alpha": func(s *Spec, v float64) { s.Design.Alpha = v },
		"MaxRelError":  func(s *Spec, v float64) { s.Sampled, s.MaxRelError = true, v },
	}
	values := []float64{0, math.Copysign(0, -1), math.NaN(), 0.35}
	for name, set := range fields {
		var specs []Spec
		for _, v := range values {
			s := base
			set(&s, v)
			specs = append(specs, s)
		}
		reversed := []Spec{specs[3], specs[2], specs[1], specs[0]}
		for o, order := range [][]Spec{specs, reversed} {
			for range 2 {
				for i, s := range order {
					want, wantPanic := tryKey(freshKey(s))
					got, gotPanic := tryKey(s.Key)
					if got != want || gotPanic != wantPanic {
						t.Errorf("%s order %d spec %d: memoized key %q (panicked %v), fresh key %q (panicked %v)",
							name, o, i, got, gotPanic, want, wantPanic)
					}
					if wantPanic {
						continue
					}
					if canon, _ := s.keyed(); string(canon) != string(s.canonicalJSON()) {
						t.Errorf("%s order %d spec %d: memoized preimage differs from the canonical JSON", name, o, i)
					}
				}
			}
		}
		// -0 marshals as "-0" except where omitempty drops it like 0.
		apart := string(specs[0].canonicalJSON()) != string(specs[1].canonicalJSON())
		if keyedApart := specs[0].Key() != specs[1].Key(); keyedApart != apart {
			t.Errorf("%s: 0 and -0 keyed apart %v, marshal apart %v", name, keyedApart, apart)
		}
	}
}

// TestMemoBypassCoversEverySpecFloat guards the memo's bypass against a
// field added to Spec later: every float64 field, at any depth, set to
// -0 or NaN must bypass the memo, and no field may compare by identity
// (a pointer, interface or channel), where == is not preimage equality.
func TestMemoBypassCoversEverySpecFloat(t *testing.T) {
	var sp Spec
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
				for _, bad := range []float64{math.Copysign(0, -1), math.NaN()} {
					f.SetFloat(bad)
					if !bypassesMemo(sp) {
						t.Errorf("bypassesMemo misses %v in Spec%s", bad, name)
					}
				}
				f.SetFloat(0)
			case reflect.Float32, reflect.Complex64, reflect.Complex128:
				t.Errorf("Spec%s is a %s; extend bypassesMemo", name, f.Kind())
			case reflect.Pointer, reflect.Interface, reflect.Chan, reflect.UnsafePointer:
				t.Errorf("Spec%s is a %s: == on it is not preimage equality", name, f.Kind())
			case reflect.Array:
				t.Errorf("Spec%s is an array; extend this walk and bypassesMemo", name)
			}
		}
	}
	walk(reflect.ValueOf(&sp).Elem(), "")
	if found == 0 {
		t.Fatal("found no float fields in Spec")
	}
	if bypassesMemo(Spec{}) {
		t.Fatal("a zero Spec holds no negative zero or NaN")
	}
}

// TestKeyMemoIsBounded pins the memo's fixed bound: it covers the
// quick, standard and full spec universes together, never holds more
// than keyMemoEntries specs, evicts oldest first, and an evicted spec
// keys the same again.
func TestKeyMemoIsBounded(t *testing.T) {
	// The three universes' sizes are pinned by experiments'
	// TestScaleUniversesFitKeyMemo.
	if universes := 282 + 940 + 940; keyMemoEntries < universes {
		t.Fatalf("keyMemoEntries = %d does not cover the %d specs of the quick, standard and full universes",
			keyMemoEntries, universes)
	}
	base := mustSpec(t, testConfig(t))
	spec := func(i int) Spec {
		sp := base
		sp.Seed = 1<<40 + uint64(i) // specs no other test keys
		return sp
	}
	first := spec(0).Key()
	if want := freshKey(spec(0))(); first != want {
		t.Fatalf("memoized key %s, fresh key %s", first, want)
	}
	for i := 1; i < keyMemoEntries+16; i++ {
		spec(i).Key()
		specKeys.mu.Lock()
		held, ring := len(specKeys.m), len(specKeys.order)
		specKeys.mu.Unlock()
		if held > keyMemoEntries || ring > keyMemoEntries {
			t.Fatalf("after %d specs the memo holds %d (ring %d), over its bound %d", i+1, held, ring, keyMemoEntries)
		}
	}
	specKeys.mu.Lock()
	_, held := specKeys.m[spec(0)]
	full := len(specKeys.m)
	specKeys.mu.Unlock()
	if held {
		t.Fatal("the oldest spec must be evicted first")
	}
	if full != keyMemoEntries {
		t.Fatalf("a full memo holds %d specs, want %d", full, keyMemoEntries)
	}
	if again := spec(0).Key(); again != first {
		t.Fatalf("an evicted spec re-keys to %s, first keyed %s", again, first)
	}
}

// TestWarmGetDoesNotMarshal pins that a memory-tier hit derives
// nothing: once a spec is keyed and its record validated, Get
// allocates only the result copy it returns (the IPC slice), with no
// JSON, no hash and no hex key.
func TestWarmGetDoesNotMarshal(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp := mustSpec(t, testConfig(t))
	if err := st.Put(sp, testResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(sp); !ok {
		t.Fatal("store must hit after Put")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := st.Get(sp); !ok {
			panic(fmt.Sprintf("warm Get of %s missed", sp.Key()))
		}
	})
	if allocs > 1 {
		t.Fatalf("a warm Get allocates %.0f times, want 1 (the IPC copy)", allocs)
	}
}
