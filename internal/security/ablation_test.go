package security

import (
	"testing"

	"impress/internal/attack"
	"impress/internal/clm"
	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/trackers"
)

// Ablation: RFM pacing must run on the weighted EACT stream. If RFM is
// paced on raw activation counts (the plain DDR5 RAA counter), a
// Row-Press attacker holding rows open generates few ACTs and starves the
// in-DRAM tracker of mitigation windows — even with ImPress-P feeding
// correct EACT weights into the tracker itself.
func TestAblationRFMPacingOnEACT(t *testing.T) {
	tm := dram.DDR5()
	mintTRH := trackers.MINTToleratedTRH(80)
	base := Config{
		Design:    core.NewDesign(core.ImpressP),
		DesignTRH: mintTRH,
		AlphaTrue: 1,
		RFMTH:     80,
		Tracker:   mintFactory(80, 31),
	}
	pattern := func() attack.Pattern {
		return &attack.RowPress{Row: 1 << 20, TON: tm.TONMax, Timings: tm}
	}

	paced := run(t, base, pattern())
	ablated := base
	ablated.RFMPaceOnRawACTs = true
	ablated.Tracker = mintFactory(80, 31)
	raw := run(t, ablated, pattern())

	if paced.MaxDamage >= mintTRH {
		t.Fatalf("EACT-paced RFM should contain the attack: %v", paced.MaxDamage)
	}
	if raw.MaxDamage < mintTRH {
		t.Fatalf("ACT-paced RFM should be starved and breached: %v", raw.MaxDamage)
	}
	if raw.RFMs >= paced.RFMs {
		t.Fatalf("ablation should see fewer RFMs: %d vs %d", raw.RFMs, paced.RFMs)
	}
}

// PRAC (Section VI-F): plain PRAC is broken by Row-Press like any counter
// scheme; PRAC + ImPress-P (7 fractional counter bits) contains it at the
// full threshold.
func TestPRACWithImpressP(t *testing.T) {
	tm := dram.DDR5()
	pracFactory := func(trh float64) trackers.Tracker { return trackers.NewPRAC(trh) }
	pattern := func() attack.Pattern {
		return &attack.RowPress{Row: 1 << 20, TON: tm.TREFI, Timings: tm}
	}

	noRP := Config{
		Design: core.NewDesign(core.NoRP), DesignTRH: designTRH,
		AlphaTrue: clm.AlphaLongDuration, RFMTH: 80, Tracker: pracFactory,
	}
	broken := run(t, noRP, pattern())
	if broken.MaxDamage < designTRH {
		t.Fatalf("plain PRAC should be broken by Row-Press: %v", broken.MaxDamage)
	}

	withP := noRP
	withP.Design = core.NewDesign(core.ImpressP)
	fixed := run(t, withP, pattern())
	if fixed.MaxDamage >= designTRH {
		t.Fatalf("PRAC + ImPress-P should contain Row-Press: %v", fixed.MaxDamage)
	}
	// PRAC is also secure against classic Rowhammer in both modes.
	rh := run(t, withP, &attack.Rowhammer{Row: 1 << 20, Timings: tm})
	if rh.MaxDamage >= designTRH {
		t.Fatalf("PRAC + ImPress-P broken by RH: %v", rh.MaxDamage)
	}
}

// PRAC needs no per-bank SRAM entries, so unlike Graphene its protection
// does not double in size under threshold reduction — only the counter
// widens (Section VI-F).
func TestPRACStorageScaling(t *testing.T) {
	plain := trackers.PRACStorageBitsPerRow(4000, 0)
	impressP := trackers.PRACStorageBitsPerRow(4000, clm.FracBits)
	if impressP-plain != clm.FracBits {
		t.Fatalf("ImPress-P must add exactly 7 bits per row: %d -> %d", plain, impressP)
	}
	lowTRH := trackers.PRACStorageBitsPerRow(1000, clm.FracBits)
	if lowTRH >= impressP {
		t.Fatalf("lower thresholds need narrower counters: %d vs %d", lowTRH, impressP)
	}
}

// DSAC (Section VII): its logarithmic time-weight under-counts Row-Press
// damage by ~15x at tON = 256 tRC.
func TestDSACUnderestimation(t *testing.T) {
	if w := clm.DSACWeight(256); w < 7.9 || w > 8.1 {
		t.Fatalf("DSAC weight at 256 tRC = %v, paper says ~8", w)
	}
	if u := clm.DSACUnderestimation(256); u < 14 || u > 16 {
		t.Fatalf("DSAC underestimation at 256 tRC = %v, paper says ~15x", u)
	}
	// The underestimation grows with open time: log vs linear.
	if clm.DSACUnderestimation(1024) <= clm.DSACUnderestimation(256) {
		t.Fatal("underestimation must grow with tON")
	}
}
