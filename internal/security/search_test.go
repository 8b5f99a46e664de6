package security

import (
	"context"
	"strings"
	"testing"

	"impress/internal/clm"
	"impress/internal/core"
	"impress/internal/trackers"
)

func TestSearchFindsRowPressAgainstNoRP(t *testing.T) {
	cfg := Config{
		Design: core.NewDesign(core.NoRP), DesignTRH: designTRH,
		AlphaTrue: clm.AlphaLongDuration, Tracker: grapheneFactory(),
	}
	sr := search(t, cfg)
	if !strings.HasPrefix(sr.BestPattern, "rowpress") {
		t.Fatalf("worst case against No-RP should be a Row-Press hold, got %s", sr.BestPattern)
	}
	if sr.BestResult.MaxDamage < designTRH {
		t.Fatalf("search failed to find a breaking pattern: %v", sr.BestResult.MaxDamage)
	}
	// The longest hold is the strongest: damage should exceed the 81-tRC
	// hold's by a wide margin.
	if sr.BestResult.MaxDamage < 100_000 {
		t.Fatalf("expected the tONMax-scale hold to win: %v", sr.BestResult.MaxDamage)
	}
}

func TestSearchFindsDecoyAgainstImpressN(t *testing.T) {
	cfg := Config{
		Design: core.NewDesign(core.ImpressN), DesignTRH: designTRH,
		AlphaTrue: 1, Tracker: grapheneFactory(),
	}
	sr := search(t, cfg)
	if sr.BestPattern != "impress-n-decoy" {
		t.Fatalf("worst case against ImPress-N should be the decoy, got %s (%v)",
			sr.BestPattern, sr.BestResult.MaxDamage)
	}
	// Retuned to TRH/2, the decoy still stays below TRH.
	if sr.BestResult.MaxDamage >= designTRH {
		t.Fatalf("ImPress-N breached by %s: %v", sr.BestPattern, sr.BestResult.MaxDamage)
	}
}

func TestSearchConfirmsImpressPWorstCaseBound(t *testing.T) {
	// The headline, now as a search result instead of an assumption: no
	// strategy in the grid pushes ImPress-P past the Rowhammer-equivalent
	// bound, at the attacker-optimal alpha = 1.
	cfg := Config{
		Design: core.NewDesign(core.ImpressP), DesignTRH: designTRH,
		AlphaTrue: 1, Tracker: grapheneFactory(),
	}
	sr := search(t, cfg)
	if sr.BestResult.MaxDamage >= designTRH {
		t.Fatalf("search broke ImPress-P with %s: %v", sr.BestPattern, sr.BestResult.MaxDamage)
	}
	if len(sr.All) < 12 {
		t.Fatalf("strategy grid too small: %d", len(sr.All))
	}
}

func TestSearchMithrilImpressP(t *testing.T) {
	cfg := Config{
		Design: core.NewDesign(core.ImpressP), DesignTRH: designTRH,
		AlphaTrue: 1, RFMTH: 80, Tracker: mithrilFactory(80),
	}
	sr := search(t, cfg)
	if sr.BestResult.MaxDamage >= designTRH {
		t.Fatalf("search broke Mithril+ImPress-P with %s: %v", sr.BestPattern, sr.BestResult.MaxDamage)
	}
}

func TestSearchUsesPRAC(t *testing.T) {
	cfg := Config{
		Design: core.NewDesign(core.ImpressP), DesignTRH: designTRH,
		AlphaTrue: 1, RFMTH: 80,
		Tracker: func(trh float64) trackers.Tracker { return trackers.NewPRAC(trh) },
	}
	sr := search(t, cfg)
	if sr.BestResult.MaxDamage >= designTRH {
		t.Fatalf("search broke PRAC+ImPress-P with %s: %v", sr.BestPattern, sr.BestResult.MaxDamage)
	}
}

func search(t *testing.T, cfg Config) SearchResult {
	t.Helper()
	sr, err := SearchWorstCase(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sr
}
