package trace

import (
	"testing"

	"impress/internal/attack"
)

func TestMixAssignsSourcesRoundRobin(t *testing.T) {
	mcf, _ := WorkloadByName("mcf")
	copyW, _ := WorkloadByName("copy")
	m, err := Mix("mix:mcf,copy", []Workload{mcf, copyW})
	if err != nil {
		t.Fatal(err)
	}
	// Core i of the mix must replay exactly source[i%2] built for core i.
	for core := 0; core < 4; core++ {
		want := []Workload{mcf, copyW}[core%2].NewGenerator(core, 3)
		got := m.NewGenerator(core, 3)
		for i := 0; i < 200; i++ {
			if w, g := want.Next(), got.Next(); w != g {
				t.Fatalf("core %d request %d: %+v, want %+v", core, i, g, w)
			}
		}
	}
}

func TestMixStreamClassification(t *testing.T) {
	for spec, wantStream := range map[string]bool{
		"mix:copy,add":          true,  // all STREAM
		"mix:copy,mcf":          false, // SPEC member
		"mix:mcf,attack:hammer": false,
	} {
		w, err := WorkloadByName(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if w.Stream != wantStream {
			t.Errorf("%s: Stream = %v, want %v", spec, w.Stream, wantStream)
		}
	}
}

func TestParseMixErrors(t *testing.T) {
	for _, spec := range []string{
		"",                 // no entries
		"mcf,,copy",        // empty entry
		"mcf,mix:gcc,copy", // nested mix
		"mcf,nope",         // unknown entry
		"mcf,attack:bogus", // unknown pattern
	} {
		if _, err := ParseMix(spec); err == nil {
			t.Errorf("ParseMix(%q) accepted an invalid spec", spec)
		}
	}
}

func TestMixNameRoundTripsThroughWorkloadByName(t *testing.T) {
	w, err := WorkloadByName("mix: mcf , copy ,attack:hammer")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "mix:mcf,copy,attack:hammer" {
		t.Fatalf("canonical name %q", w.Name)
	}
	again, err := WorkloadByName(w.Name)
	if err != nil {
		t.Fatalf("canonical mix name does not resolve: %v", err)
	}
	a, b := w.NewGenerator(2, 5), again.NewGenerator(2, 5)
	for i := 0; i < 200; i++ {
		if ra, rb := a.Next(), b.Next(); ra != rb {
			t.Fatalf("request %d differs after name round trip", i)
		}
	}
}

func TestAttackWorkloadProperties(t *testing.T) {
	for _, pattern := range attack.PaperPatternNames() {
		w, err := WorkloadByName("attack:" + pattern)
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		if w.Stream {
			t.Errorf("%s: attack workloads are not STREAM class", pattern)
		}
		g := w.NewGenerator(0, 1)
		g2 := w.NewGenerator(0, 99) // patterns are deterministic; seed is irrelevant
		for i := 0; i < 500; i++ {
			req := g.Next()
			if req != g2.Next() {
				t.Fatalf("%s: nondeterministic at request %d", pattern, i)
			}
			if !req.Uncached {
				t.Fatalf("%s: request %d not uncached", pattern, i)
			}
			if req.Write {
				t.Fatalf("%s: attackers only read", pattern)
			}
			if req.Addr%LineSize != 0 {
				t.Fatalf("%s: unaligned address %#x", pattern, req.Addr)
			}
			if req.Gap < 0 {
				t.Fatalf("%s: negative gap", pattern)
			}
		}
	}
}

func TestAttackAddressesDisjointFromWorkloads(t *testing.T) {
	// Aggressor rows live far above the 512 MB-per-core rate-mode ranges,
	// and different aggressor cores must not alias each other.
	w, _ := WorkloadByName("attack:manysided")
	const rateModeTop = 8 * 512 * mb * LineSize // bytes above all 8 cores
	seen := map[uint64]int{}
	for core := 0; core < 2; core++ {
		g := w.NewGenerator(core, 1)
		for i := 0; i < 2000; i++ {
			addr := g.Next().Addr
			if addr < rateModeTop {
				t.Fatalf("core %d: attack address %#x inside workload ranges", core, addr)
			}
			if owner, ok := seen[addr]; ok && owner != core {
				t.Fatalf("address %#x shared by cores %d and %d", addr, owner, core)
			}
			seen[addr] = core
		}
	}
}

func TestAttackPatternPacing(t *testing.T) {
	// Double-sided hammering is tRC-paced: at 4 GHz and tRC = 48 ns the
	// mean gap must be ~190 instructions, not zero and not thousands.
	w, _ := WorkloadByName("attack:hammer")
	g := w.NewGenerator(0, 1)
	total := 0
	const n = 1000
	for i := 0; i < n; i++ {
		total += g.Next().Gap + 1
	}
	mean := float64(total) / n
	if mean < 100 || mean > 400 {
		t.Fatalf("hammer mean request spacing %.0f instructions; want ~190 (tRC at the core clock)", mean)
	}
}

func TestWorkloadByNameUnknownSpecs(t *testing.T) {
	for _, name := range []string{"nope", "attack:", "attack:nope", "mix:"} {
		if _, err := WorkloadByName(name); err == nil {
			t.Errorf("WorkloadByName(%q) should fail", name)
		}
	}
	if _, err := WorkloadByName("mix:copy,scale"); err != nil {
		t.Errorf("valid mix spec rejected: %v", err)
	}
}
