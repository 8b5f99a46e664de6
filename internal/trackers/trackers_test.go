package trackers

import (
	"math"
	"testing"
	"testing/quick"

	"impress/internal/clm"
	"impress/internal/stats"
)

func TestGrapheneEntriesPaperValues(t *testing.T) {
	// Section VI-C: TRH=4K -> 448 entries; T*=2K -> 896 (2x).
	if got := GrapheneEntries(4000); got != 448 {
		t.Fatalf("entries(4K) = %d, want 448", got)
	}
	if got := GrapheneEntries(2000); got != 896 {
		t.Fatalf("entries(2K) = %d, want 896", got)
	}
	// Appendix A: alpha=0.35 -> T*=2963 -> 605 entries.
	if got := GrapheneEntries(4000 / 1.35); got < 600 || got > 610 {
		t.Fatalf("entries(4K/1.35) = %d, want ~605", got)
	}
	if got := GrapheneEntries(1000); got != 1792 {
		t.Fatalf("entries(1K) = %d, want 1792", got)
	}
}

func TestGrapheneDetectsHeavyHitter(t *testing.T) {
	g := NewGraphene(4000)
	internal := int(4000 / GrapheneInternalDivisor)
	var mitigated bool
	for i := 0; i < internal+1; i++ {
		if rows := g.OnActivation(7, clm.One); len(rows) > 0 {
			if rows[0] != 7 {
				t.Fatalf("mitigated wrong row %d", rows[0])
			}
			mitigated = true
			break
		}
	}
	if !mitigated {
		t.Fatal("heavy hitter not mitigated within the internal threshold")
	}
	if g.mitigations != 1 {
		t.Fatalf("mitigation count = %d", g.mitigations)
	}
}

func TestGrapheneCounterResetsAfterMitigation(t *testing.T) {
	g := NewGrapheneRaw(4, 10*clm.One)
	for i := 0; i < 9; i++ {
		if rows := g.OnActivation(1, clm.One); rows != nil {
			t.Fatalf("premature mitigation at %d", i)
		}
	}
	if rows := g.OnActivation(1, clm.One); len(rows) != 1 {
		t.Fatal("expected mitigation at threshold")
	}
	if g.count(1) != 0 {
		t.Fatalf("counter not reset: %v", g.count(1))
	}
}

func TestGrapheneFractionalWeights(t *testing.T) {
	// ImPress-P feeds fractional EACTs: 1.5 per access must reach a
	// threshold of 3 in exactly 2 accesses.
	g := NewGrapheneRaw(4, 3*clm.One)
	w := clm.One + clm.One/2
	if rows := g.OnActivation(5, w); rows != nil {
		t.Fatal("mitigation too early")
	}
	if rows := g.OnActivation(5, w); len(rows) != 1 {
		t.Fatal("fractional accumulation failed to trigger mitigation")
	}
}

// Property: Space-Saving guarantees — (1) a tracked row's counter never
// under-counts its true activation weight (over-estimation only, which is
// safe: it can only cause extra mitigations); (2) a row absent from the
// table has true weight at most W/entries, so no heavy hitter ever evades
// tracking.
func TestGrapheneNeverUndercounts(t *testing.T) {
	const entries = 4
	f := func(seq []uint8) bool {
		g := NewGrapheneRaw(entries, clm.EACT(math.MaxUint64/2)) // never mitigate
		truth := map[int64]clm.EACT{}
		for _, b := range seq {
			row := int64(b % 16)
			g.OnActivation(row, clm.One)
			truth[row] += clm.One
		}
		total := clm.EACT(len(seq)) * clm.One
		for row, trueCount := range truth {
			got := g.count(row)
			if got != 0 && got < trueCount {
				return false // tracked row under-counted: security violation
			}
			if got == 0 && trueCount > total/entries {
				return false // heavy hitter evaded the table
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGrapheneResetWindow(t *testing.T) {
	g := NewGrapheneRaw(4, 100*clm.One)
	g.OnActivation(1, clm.One)
	g.OnActivation(2, clm.One)
	g.ResetWindow()
	if g.count(1) != 0 || g.count(2) != 0 {
		t.Fatal("window reset did not clear counters")
	}
	// Tracker stays usable after reset.
	if rows := g.OnActivation(3, clm.One); rows != nil {
		t.Fatal("unexpected mitigation after reset")
	}
}

func TestGrapheneEviction(t *testing.T) {
	g := NewGrapheneRaw(2, 1000*clm.One)
	g.OnActivation(1, clm.One)
	g.OnActivation(2, clm.One)
	// Table full; a third row evicts the minimum and inherits its count.
	g.OnActivation(3, clm.One)
	if g.count(3) < 2*clm.One {
		t.Fatalf("evicting row should inherit min count + weight, got %v", g.count(3).Float())
	}
}

func TestPARAProbabilityPaperValues(t *testing.T) {
	// Section III-B: TRH=4K -> p=1/184; Appendix A: T*=2K -> p=1/92.
	if got := 1 / PARAProbability(4000); math.Abs(got-184) > 0.5 {
		t.Fatalf("1/p(4K) = %v, want 184", got)
	}
	if got := 1 / PARAProbability(2000); math.Abs(got-92) > 0.5 {
		t.Fatalf("1/p(2K) = %v, want 92", got)
	}
	// alpha=0.35: T* = 4000/1.35 -> p = 1/136 (Appendix A).
	if got := 1 / PARAProbability(4000/1.35); math.Abs(got-136) > 1 {
		t.Fatalf("1/p(4K/1.35) = %v, want ~136", got)
	}
}

func TestPARASelectionRate(t *testing.T) {
	rng := stats.NewRand(1)
	p := &PARA{p: 0.05, rng: rng}
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if rows := p.OnActivation(int64(i), clm.One); len(rows) > 0 {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.05) > 0.005 {
		t.Fatalf("selection rate %v, want ~0.05", rate)
	}
	if p.mitigations != uint64(hits) {
		t.Fatal("mitigation accounting wrong")
	}
}

func TestPARAEACTScalesProbability(t *testing.T) {
	// ImPress-P: weight w multiplies the selection probability.
	rng := stats.NewRand(2)
	p := &PARA{p: 0.02, rng: rng}
	const n = 200000
	hits := 0
	w := 4 * clm.One // EACT = 4
	for i := 0; i < n; i++ {
		if rows := p.OnActivation(int64(i), w); len(rows) > 0 {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.08) > 0.01 {
		t.Fatalf("EACT-scaled rate %v, want ~0.08", rate)
	}
}

func TestPARASaturatesAtOne(t *testing.T) {
	rng := stats.NewRand(3)
	p := &PARA{p: 0.5, rng: rng}
	// weight 100 -> probability 50, clamps to 1: every ACT mitigates.
	for i := 0; i < 100; i++ {
		if rows := p.OnActivation(1, 100*clm.One); len(rows) != 1 {
			t.Fatal("saturated PARA must always mitigate")
		}
	}
}

func TestMithrilEntriesPaperValues(t *testing.T) {
	// Section III-B / VI-C / Appendix A at RFMTH=80.
	if got := MithrilEntries(4000, 80); got != 383 {
		t.Fatalf("entries(4K) = %d, want 383", got)
	}
	if got := MithrilEntries(2000, 80); got < 1540 || got > 1550 {
		t.Fatalf("entries(2K) = %d, want ~1545", got)
	}
	if got := MithrilEntries(2963, 80); got < 600 || got > 640 {
		t.Fatalf("entries(2963) = %d, want ~615-628", got)
	}
}

func TestMithrilEntriesRejectsInfeasible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for TRH below the RFM floor")
		}
	}()
	MithrilEntries(1000, 80)
}

func TestMithrilMitigatesHottestRowAtRFM(t *testing.T) {
	m := NewMithrilRaw(8, 80)
	for i := 0; i < 50; i++ {
		m.OnActivation(5, clm.One)
	}
	for i := 0; i < 10; i++ {
		m.OnActivation(6, clm.One)
	}
	rows := m.OnRFM()
	if len(rows) != 1 || rows[0] != 5 {
		t.Fatalf("RFM mitigated %v, want row 5", rows)
	}
	// After mitigation, row 5's count dropped; next RFM picks row 6.
	rows = m.OnRFM()
	if len(rows) != 1 || rows[0] != 6 {
		t.Fatalf("second RFM mitigated %v, want row 6", rows)
	}
}

func TestMithrilInlineNeverMitigates(t *testing.T) {
	m := NewMithrilRaw(2, 80)
	for i := 0; i < 1000; i++ {
		if rows := m.OnActivation(1, clm.One); rows != nil {
			t.Fatal("in-DRAM tracker must not mitigate inline")
		}
	}
	if !m.InDRAM() {
		t.Fatal("Mithril must report in-DRAM")
	}
}

func TestMithrilEmptyRFM(t *testing.T) {
	m := NewMithrilRaw(4, 80)
	if rows := m.OnRFM(); rows != nil {
		t.Fatalf("RFM on empty tracker mitigated %v", rows)
	}
}

func TestMithrilFractionalWeights(t *testing.T) {
	m := NewMithrilRaw(4, 80)
	// Row 1 gets 3 activations; row 2 gets 2 accesses at EACT 2.5 (total 5).
	for i := 0; i < 3; i++ {
		m.OnActivation(1, clm.One)
	}
	w := 2*clm.One + clm.One/2
	m.OnActivation(2, w)
	m.OnActivation(2, w)
	rows := m.OnRFM()
	if len(rows) != 1 || rows[0] != 2 {
		t.Fatalf("RFM mitigated %v; EACT weighting should favor row 2", rows)
	}
}

func TestMINTToleratedThresholds(t *testing.T) {
	// Section III-B: RFMTH=80 -> 1.6K.
	if got := MINTToleratedTRH(80); got != 1600 {
		t.Fatalf("MINT TRH(80) = %v, want 1600", got)
	}
}

func TestMINTUniformSelection(t *testing.T) {
	// With RFMTH activations of distinct rows per interval, each slot must
	// be selected uniformly: chi-square style sanity check.
	rng := stats.NewRand(4)
	const rfmth = 8
	m := NewMINT(rfmth, rng)
	counts := make([]int, rfmth)
	const intervals = 40000
	for it := 0; it < intervals; it++ {
		for slot := 0; slot < rfmth; slot++ {
			m.OnActivation(int64(slot), clm.One)
		}
		rows := m.OnRFM()
		if len(rows) != 1 {
			t.Fatalf("interval %d: mitigated %v", it, rows)
		}
		counts[rows[0]]++
	}
	for slot, c := range counts {
		frac := float64(c) / intervals
		if math.Abs(frac-1.0/rfmth) > 0.01 {
			t.Fatalf("slot %d selected with frequency %v, want %v", slot, frac, 1.0/rfmth)
		}
	}
}

func TestMINTEACTWeightedSelection(t *testing.T) {
	// Row 0 arrives with EACT 3, rows 1..5 with EACT 1 (total 8 = RFMTH):
	// row 0 must be selected ~3/8 of the time.
	rng := stats.NewRand(5)
	const rfmth = 8
	m := NewMINT(rfmth, rng)
	sel := map[int64]int{}
	const intervals = 60000
	for it := 0; it < intervals; it++ {
		m.OnActivation(0, 3*clm.One)
		for r := int64(1); r <= 5; r++ {
			m.OnActivation(r, clm.One)
		}
		for _, r := range m.OnRFM() {
			sel[r]++
		}
	}
	frac0 := float64(sel[0]) / intervals
	if math.Abs(frac0-3.0/8) > 0.01 {
		t.Fatalf("EACT-3 row selected %v, want 0.375", frac0)
	}
	frac1 := float64(sel[1]) / intervals
	if math.Abs(frac1-1.0/8) > 0.01 {
		t.Fatalf("EACT-1 row selected %v, want 0.125", frac1)
	}
}

func TestMINTNoCaptureNoMitigation(t *testing.T) {
	rng := stats.NewRand(6)
	m := NewMINT(80, rng)
	// No activations at all: RFM mitigates nothing.
	if rows := m.OnRFM(); rows != nil {
		t.Fatalf("empty interval mitigated %v", rows)
	}
}

func TestMINTResetWindow(t *testing.T) {
	rng := stats.NewRand(7)
	m := NewMINT(4, rng)
	for i := 0; i < 4; i++ {
		m.OnActivation(9, clm.One)
	}
	m.ResetWindow()
	if rows := m.OnRFM(); rows != nil {
		t.Fatalf("window reset should clear SAR; mitigated %v", rows)
	}
}

func TestTrackerInterfaceCompliance(t *testing.T) {
	rng := stats.NewRand(8)
	all := []Tracker{
		NewGraphene(4000),
		NewPARA(4000, rng.Split()),
		NewMithril(4000, 80),
		NewMINT(80, rng.Split()),
		NewHydra(4000),
		NewABACuS(4000),
	}
	wantInDRAM := map[string]bool{
		"graphene": false, "para": false, "mithril": true, "mint": true,
		"hydra": false, "abacus": false,
	}
	for _, tr := range all {
		if tr.Name() == "" {
			t.Fatal("empty tracker name")
		}
		if tr.InDRAM() != wantInDRAM[tr.Name()] {
			t.Fatalf("%s InDRAM mismatch", tr.Name())
		}
		// Interface calls must not panic on normal use.
		tr.OnActivation(1, clm.One)
		tr.OnRFM()
		tr.ResetWindow()
	}
}

func TestZeroWeightPanics(t *testing.T) {
	rng := stats.NewRand(9)
	for _, tr := range []Tracker{
		NewGraphene(4000), NewPARA(4000, rng.Split()),
		NewMithril(4000, 80), NewMINT(80, rng.Split()),
		NewHydra(4000), NewABACuS(4000),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: zero-weight activation must panic", tr.Name())
				}
			}()
			tr.OnActivation(1, 0)
		}()
	}
}
