package resultstore

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"impress/internal/sim"
)

// sampledResult is testResult with sampled-mode estimates, so the copy
// tests cover both reference fields of a result.
func sampledResult() sim.Result {
	res := testResult()
	res.Estimates = &sim.SampledEstimates{
		Intervals:   7,
		WeightedIPC: sim.MetricEstimate{Mean: 3.5, RelError: 0.01},
		ACTsPerKilo: sim.MetricEstimate{Mean: 12.25, RelError: 0.02},
	}
	return res
}

// TestMemoryHitMatchesFreshGet pins that a memory-tier hit returns what
// a Get through a fresh handle on the same directory returns, value for
// value and byte for byte, and that the second read really is served
// from memory.
func TestMemoryHitMatchesFreshGet(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sp := mustSpec(t, testConfig(t))
	if err := st.Put(sp, sampledResult()); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(sp); !ok { // disk read: fills the tier
		t.Fatal("store must hit after Put")
	}
	fresh, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := fresh.Get(sp)
	if !ok {
		t.Fatal("fresh handle must hit")
	}
	// With the entry file gone only the memory tier can serve it.
	if err := os.Remove(entryFile(t, dir)); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(sp)
	if !ok {
		t.Fatal("a validated entry must hit from memory")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("memory hit %+v differs from fresh Get %+v", got, want)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("memory hit encodes as\n%s\nfresh Get as\n%s", gotJSON, wantJSON)
	}
	later, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := later.Get(sp); ok {
		t.Fatal("a handle that never served the entry must see it deleted")
	}
}

// TestMemoryHitIsACopy pins that no caller can reach the tier's result:
// mutating a returned IPC slice or Estimates, from the disk read or from
// a memory hit, leaves the next hit unchanged.
func TestMemoryHitIsACopy(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp := mustSpec(t, testConfig(t))
	want := sampledResult()
	if err := st.Put(sp, want); err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		got, ok := st.Get(sp)
		if !ok {
			t.Fatalf("get %d missed", i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("get %d = %+v, want %+v", i, got, want)
		}
		got.IPC[0] = -1
		got.Estimates.Intervals = -1
		got.Estimates.WeightedIPC.Mean = -1
	}
}

// TestMemoryTierComparesPreimage pins that a memory entry serves only
// the exact preimage it was validated under.
func TestMemoryTierComparesPreimage(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sp := mustSpec(t, testConfig(t))
	other := sp
	other.Seed++
	st.mem.add(sp.Key(), other.canonicalJSON(), testResult())
	if _, ok := st.Get(sp); ok {
		t.Fatal("a memory entry with another preimage must not serve the spec")
	}
}

// TestMemoryTierKeepsCounters pins that the memory tier changes no
// counter: one handle serving repeats from memory counts the same hits
// and misses as fresh handles (empty tiers) doing the same Gets from
// disk.
func TestMemoryTierKeepsCounters(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := mustSpec(t, testConfig(t))
	b := a
	b.Seed++
	var fresh Counters
	get := func(sp Spec) {
		st.Get(sp)
		h, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		h.Get(sp)
		c := h.Counters()
		fresh.Hits += c.Hits
		fresh.Misses += c.Misses
	}
	get(a)
	if err := st.Put(a, testResult()); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		get(a)
		get(b)
	}
	if err := st.Put(b, testResult()); err != nil {
		t.Fatal(err)
	}
	get(b)
	get(b)
	c := st.Counters()
	if c.Hits != fresh.Hits || c.Misses != fresh.Misses {
		t.Fatalf("tiered handle counted %d hits / %d misses, fresh handles %d / %d",
			c.Hits, c.Misses, fresh.Hits, fresh.Misses)
	}
	if c.Hits != 5 || c.Misses != 4 {
		t.Fatalf("counted %d hits / %d misses, want 5 / 4", c.Hits, c.Misses)
	}
}

// TestMemoryTierIsBounded pins the tier's fixed bound: it covers the
// QuickScale universe, a handle never holds more, and an evicted entry
// still reads from disk.
func TestMemoryTierIsBounded(t *testing.T) {
	if memEntries < 282 {
		t.Fatalf("memEntries = %d does not cover the 282 QuickScale specs", memEntries)
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := mustSpec(t, testConfig(t))
	spec := func(i int) Spec {
		sp := base
		sp.Seed = uint64(i + 1)
		return sp
	}
	n := memEntries + 16
	for i := range n {
		if err := st.Put(spec(i), testResult()); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.Get(spec(i)); !ok {
			t.Fatalf("spec %d missed", i)
		}
		if held := len(st.mem.m); held > memEntries {
			t.Fatalf("after %d entries the tier holds %d, over its bound %d", i+1, held, memEntries)
		}
	}
	if held := len(st.mem.m); held != memEntries {
		t.Fatalf("a full tier holds %d entries, want %d", held, memEntries)
	}
	if _, ok := st.mem.m[spec(0).Key()]; ok {
		t.Fatal("the oldest entry must be evicted first")
	}
	if _, ok := st.Get(spec(0)); !ok {
		t.Fatal("an evicted entry must still read from disk")
	}
}

// BenchmarkStoreGetWarm measures a warm result Get: the memory-tier hit
// a warm sweep makes for every spec.
func BenchmarkStoreGetWarm(b *testing.B) {
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	sp := mustSpec(b, testConfig(b))
	if err := st.Put(sp, testResult()); err != nil {
		b.Fatal(err)
	}
	st.Get(sp)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, ok := st.Get(sp); !ok {
			b.Fatal("warm Get missed")
		}
	}
}
