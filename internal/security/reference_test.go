package security

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"impress/internal/attack"
	"impress/internal/clm"
	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/stats"
	"impress/internal/trackers"
)

// victimsOf returns the victim rows of an aggressor: BlastRadius rows
// on each side, nearest first.
func victimsOf(aggressor int64) []int64 {
	victims := make([]int64, 0, 2*trackers.BlastRadius)
	for d := int64(1); d <= trackers.BlastRadius; d++ {
		victims = append(victims, aggressor-d, aggressor+d)
	}
	return victims
}

func TestVictimsOf(t *testing.T) {
	v := victimsOf(100)
	want := map[int64]bool{98: true, 99: true, 101: true, 102: true}
	if len(v) != 4 {
		t.Fatalf("want 4 victims, got %d", len(v))
	}
	for _, r := range v {
		if !want[r] {
			t.Fatalf("unexpected victim %d", r)
		}
	}
	if trackers.ActsPerMitigation != 4 {
		t.Fatal("Appendix B assumes 4 activations per mitigation")
	}
}

// referenceRun is the straightforward harness RunContext must match bit
// for bit: per-victim damage in a row -> damage map and the loop written
// out with closures, no cancellation. It is the oracle for the paged
// damage table, the hot step method and the policy- and tracker-owned
// result buffers.
func referenceRun(cfg Config, pattern attack.Pattern) Result {
	t := cfg.Design.Timings
	duration := cfg.Duration
	if duration == 0 {
		duration = t.TREFW
	}

	policy := core.NewBankPolicy(cfg.Design)
	tr := cfg.Tracker(cfg.Design.TrackerTRH(cfg.DesignTRH))
	model := clm.Model{Alpha: cfg.AlphaTrue, Timings: t}
	openLimit := cfg.Design.RowOpenLimit()

	res := Result{Pattern: pattern.Name()}
	damage := make(map[int64]float64)
	now := dram.Tick(0)
	served := int64(0)
	windowEnd := t.TREFW
	var eactSinceRFM clm.EACT
	var pending []int64

	feed := func(events []core.Event) {
		for _, ev := range events {
			if cfg.RFMPaceOnRawACTs {
				eactSinceRFM += clm.One
			} else {
				eactSinceRFM += ev.Weight
			}
			pending = append(pending, tr.OnActivation(ev.Row, ev.Weight)...)
		}
	}
	refreshVictims := func(aggressor int64) {
		for _, v := range victimsOf(aggressor) {
			damage[v] = 0
		}
	}
	accrue := func(row int64, tON dram.Tick) {
		d := model.AccessTCL(tON)
		for _, v := range victimsOf(row) {
			damage[v] += d
			if damage[v] > res.MaxDamage {
				res.MaxDamage = damage[v]
			}
		}
	}

	for now < duration {
		if due := int64(now/t.TREFI) - served; due > 0 {
			now += dram.Tick(due) * t.TRFC
			served += due
			res.Refreshes += uint64(due)
		}
		if now >= windowEnd {
			for r := range damage {
				damage[r] = 0
			}
			tr.ResetWindow()
			windowEnd += t.TREFW
		}

		acc := pattern.Next(now)
		actAt := acc.ActAt
		if actAt < now {
			actAt = now
		}
		tON := acc.TON
		if tON < t.TRAS {
			tON = t.TRAS
		}
		if tON > openLimit {
			tON = openLimit
		}

		feed(policy.OnActivate(actAt, acc.Row))
		res.DemandACTs++

		closeAt := actAt + tON
		accrue(acc.Row, tON)
		feed(policy.OnPrecharge(closeAt, acc.Row, tON))
		now = closeAt + t.TPRE

		for _, aggressor := range pending {
			refreshVictims(aggressor)
			res.Mitigations++
			res.MitigativeACTs += trackers.ActsPerMitigation
			cost := dram.Tick(trackers.ActsPerMitigation) * t.TRC
			now += cost
			res.MitigationTime += cost
		}
		pending = pending[:0]

		if tr.InDRAM() && cfg.RFMTH > 0 && eactSinceRFM >= clm.EACT(cfg.RFMTH)*clm.One {
			eactSinceRFM = 0
			now += t.TRFM
			res.RFMs++
			for _, aggressor := range tr.OnRFM() {
				refreshVictims(aggressor)
				res.Mitigations++
			}
		}
	}
	res.Elapsed = now
	return res
}

// Genomes shaped like the paper patterns (the synthesis engine's seed
// archetypes) and the archived ABACuS champion.
var referenceGenomes = []string{
	"v1:2.2.1:0.0.0.0,1.0.0.0",            // double-sided hammer
	"v1:1.2.1:0.45.0.0",                   // long-hold press
	"v1:1.2.64:0.0.0.0,-1.0.0.1,-1.0.0.1", // aligned decoy flood
	"v1:8.2.1:0.0.0.0,1.0.0.0,2.0.0.0,3.0.0.0,4.0.0.0,5.0.0.0,6.0.0.0,7.0.0.0",          // many-sided
	"v1:2.2.1:0.0.0.0,1.0.0.0,0.0.0.0,1.0.0.0,0.45.0.0",                                 // interleaved
	"v1:2.2.2048:0.0.0.0,-1.0.0.0,-1.0.0.0,-1.0.0.0,1.0.0.0,-1.0.0.0,-1.0.0.0,-1.0.0.0", // decoy thrash
	"v1:4.2.2048:0.0.0.0,1.0.0.0,-1.0.0.0,-1.0.0.0,-1.0.0.0",                            // archived champion
}

var (
	referenceDesigns  = []core.Kind{core.NoRP, core.ExPress, core.ImpressN, core.ImpressP}
	referenceTrackers = []string{"graphene", "para", "mint", "mithril"}
)

// fixedPatterns lists every paper pattern and every search.go strategy,
// the non-genome half of the oracle's pattern space.
func fixedPatterns(tm dram.Timings) []func() attack.Pattern {
	var out []func() attack.Pattern
	for _, name := range attack.PaperPatternNames() {
		out = append(out, func() attack.Pattern {
			p, err := attack.BySpec(name, tm)
			if err != nil {
				panic(err)
			}
			return p
		})
	}
	return append(out, candidatePatterns(tm)...)
}

// referenceConfig builds the oracle's configuration: the design, the
// registered tracker with RFM on when it is in-DRAM, and a fixed seed so
// both harnesses see the same random stream.
func referenceConfig(design core.Kind, tracker string, rawPacing bool) Config {
	info, ok := trackers.ByName(tracker)
	if !ok {
		panic("unknown tracker " + tracker)
	}
	rfmth := 0
	if info.InDRAM {
		rfmth = 80
	}
	return Config{
		Design:           core.NewDesign(design),
		DesignTRH:        4000,
		AlphaTrue:        clm.AlphaLongDuration,
		RFMTH:            rfmth,
		RFMPaceOnRawACTs: rawPacing,
		Tracker: func(trh float64) trackers.Tracker {
			return info.New(trh, rfmth, stats.NewRand(7))
		},
	}
}

// checkAgainstReference runs mk's pattern through RunContext and the
// reference and requires equal Results (== on every field, so MaxDamage
// must match to the bit).
func checkAgainstReference(t *testing.T, cfg Config, mk func() attack.Pattern) {
	t.Helper()
	got, err := RunContext(context.Background(), cfg, mk())
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceRun(cfg, mk()); got != want {
		t.Fatalf("%s under %v: RunContext diverged from the reference\n got %+v\nwant %+v",
			got.Pattern, cfg.Design.Kind, got, want)
	}
}

// FuzzRunContextMatchesReference is the differential oracle for the
// harness: any genome, or any paper or search pattern, under each
// design and tracker, must produce exactly the reference Result. The
// refresh window is shortened to 16 tREFI so a short run still crosses
// several tREFW damage resets.
func FuzzRunContextMatchesReference(f *testing.F) {
	nFixed := len(fixedPatterns(dram.DDR5()))
	for i, g := range referenceGenomes {
		if _, err := attack.ParseGenome(g); err != nil {
			f.Fatalf("seed genome %q: %v", g, err)
		}
		f.Add(g, uint8(0), uint8(i), uint8(i), false)
	}
	for p := 1; p <= nFixed; p++ {
		f.Add("", uint8(p), uint8(p), uint8(p/len(referenceDesigns)), p%3 == 0)
	}
	f.Fuzz(func(t *testing.T, genome string, pattern, design, tracker uint8, rawPacing bool) {
		cfg := referenceConfig(referenceDesigns[int(design)%len(referenceDesigns)],
			referenceTrackers[int(tracker)%len(referenceTrackers)], rawPacing)
		tm := &cfg.Design.Timings
		tm.TREFW = 16 * tm.TREFI
		cfg.Duration = 3*tm.TREFW + tm.TREFI/2
		var mk func() attack.Pattern
		if p := int(pattern) % (nFixed + 1); p > 0 {
			mk = fixedPatterns(*tm)[p-1]
		} else {
			g, err := attack.ParseGenome(genome)
			if err != nil {
				t.Skip()
			}
			mk = func() attack.Pattern {
				p, err := attack.NewProgram(g, *tm)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
		}
		checkAgainstReference(t, cfg, mk)
	})
}

// TestRunContextMatchesReferenceFullWindows runs the oracle at the real
// DDR5 timings across one tREFW reset, each design paired with a
// different tracker, on the archived champion (sparse decoys, rows near
// zero) and on the search's double-sided hammer around row 1<<20.
func TestRunContextMatchesReferenceFullWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("full refresh windows; the fuzz seeds cover shortened ones")
	}
	champion, err := attack.ParseGenome(referenceGenomes[len(referenceGenomes)-1])
	if err != nil {
		t.Fatal(err)
	}
	for i, design := range referenceDesigns {
		tracker := referenceTrackers[i]
		t.Run(fmt.Sprintf("%v/%s", design, tracker), func(t *testing.T) {
			cfg := referenceConfig(design, tracker, false)
			tm := cfg.Design.Timings
			cfg.Duration = tm.TREFW + 4*tm.TREFI
			checkAgainstReference(t, cfg, func() attack.Pattern {
				p, err := attack.NewProgram(champion, tm)
				if err != nil {
					t.Fatal(err)
				}
				return p
			})
			checkAgainstReference(t, cfg, func() attack.Pattern {
				return &attack.ManySided{Rows: []int64{1<<20 - 1, 1<<20 + 1}, Timings: tm}
			})
		})
	}
}

// TestRunContextAllocsIndependentOfDuration: the harness allocates only
// at set-up (tracker, policy, first touch of each damage page, the
// pending list's first growth), never per access or per refresh window,
// so a run four times as long — crossing tREFW resets — makes exactly
// as many allocations.
func TestRunContextAllocsIndependentOfDuration(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	g, err := attack.ParseGenome("v1:1.2.64:0.0.0.0,-1.0.0.1,-1.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		design  core.Kind
		tracker string
	}{
		{core.ImpressP, "graphene"},
		{core.ImpressN, "mint"},
	} {
		cfg := referenceConfig(tc.design, tc.tracker, false)
		tm := cfg.Design.Timings
		allocs := func(d dram.Tick) float64 {
			cfg.Duration = d
			return testing.AllocsPerRun(3, func() {
				p, err := attack.NewProgram(g, tm)
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunContext(context.Background(), cfg, p)
				if err != nil {
					t.Fatal(err)
				}
				if res.Mitigations == 0 {
					t.Fatalf("%v+%s: no mitigations; the buffers went unexercised", tc.design, tc.tracker)
				}
			})
		}
		short, long := allocs(tm.TREFW/2), allocs(2*tm.TREFW)
		if short != long {
			t.Errorf("%v+%s: %v allocs at tREFW/2 but %v at 2 tREFW; the harness allocates per access or per window",
				tc.design, tc.tracker, short, long)
		}
	}
}

// BenchmarkRunContext replays the aligned decoy flood against
// ImPress-P+Graphene for one refresh window and reports the cost per
// harness access (one pattern access: ACT, damage accrual, PRE and any
// mitigation it triggers).
func BenchmarkRunContext(b *testing.B) {
	g, err := attack.ParseGenome("v1:1.2.64:0.0.0.0,-1.0.0.1,-1.0.0.1")
	if err != nil {
		b.Fatal(err)
	}
	cfg := referenceConfig(core.ImpressP, "graphene", false)
	var accesses uint64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b.Loop() {
		p, err := attack.NewProgram(g, cfg.Design.Timings)
		if err != nil {
			b.Fatal(err)
		}
		res, err := RunContext(context.Background(), cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		accesses += res.DemandACTs
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(accesses), "allocs/access")
}
