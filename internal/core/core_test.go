package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"impress/internal/clm"
	"impress/internal/dram"
	"impress/internal/errs"
)

func TestDesignDefaults(t *testing.T) {
	for _, k := range []Kind{NoRP, ExPress, ImpressN, ImpressP} {
		d := NewDesign(k)
		if err := d.Validate(); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
	}
	ex := NewDesign(ExPress)
	if ex.TMRO != ex.Timings.TRAS+ex.Timings.TRC {
		t.Fatalf("ExPress default tMRO = %dns, want tRAS+tRC", ex.TMRO.ToNs())
	}
	ip := NewDesign(ImpressP)
	if ip.FracBits != clm.FracBits {
		t.Fatal("ImPress-P default precision must be 7 bits")
	}
}

func TestTrackerTRHTableIII(t *testing.T) {
	const trh = 4000.0
	// No-RP and ImPress-P keep the threshold (the headline result).
	if got := NewDesign(NoRP).TrackerTRH(trh); got != trh {
		t.Fatalf("NoRP TRH = %v", got)
	}
	if got := NewDesign(ImpressP).TrackerTRH(trh); got != trh {
		t.Fatalf("ImPress-P TRH = %v (must not change)", got)
	}
	// ExPress at default tMRO (tRAS+tRC) and alpha=1: T* = TRH/2.
	if got := NewDesign(ExPress).TrackerTRH(trh); got != trh/2 {
		t.Fatalf("ExPress TRH = %v, want %v", got, trh/2)
	}
	// ImPress-N at alpha=1: T* = TRH/2 (Equation 5).
	if got := NewDesign(ImpressN).TrackerTRH(trh); got != trh/2 {
		t.Fatalf("ImPress-N TRH = %v, want %v", got, trh/2)
	}
	// alpha = 0.35: T* = TRH/1.35 for both.
	want := trh / 1.35
	if got := NewDesign(ImpressN).WithAlpha(0.35).TrackerTRH(trh); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ImPress-N(0.35) TRH = %v, want %v", got, want)
	}
	if got := NewDesign(ExPress).WithAlpha(0.35).TrackerTRH(trh); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ExPress(0.35) TRH = %v, want %v", got, want)
	}
}

func TestRowOpenLimit(t *testing.T) {
	tm := dram.DDR5()
	// Only ExPress limits tON; ImPress designs allow up to the DDR5 max.
	if got := NewDesign(ExPress).RowOpenLimit(); got != tm.TRAS+tm.TRC {
		t.Fatalf("ExPress limit = %v", got)
	}
	for _, k := range []Kind{NoRP, ImpressN, ImpressP} {
		if got := NewDesign(k).RowOpenLimit(); got != tm.TONMax {
			t.Fatalf("%v limit = %v, want tONMax (no design limit)", k, got)
		}
	}
}

func TestDesignValidation(t *testing.T) {
	bad := NewDesign(ExPress)
	bad.TMRO = dram.Ns(10) // below tRAS
	if bad.Validate() == nil {
		t.Fatal("tMRO below tRAS must be invalid")
	}
	badN := NewDesign(ImpressN)
	badN.Alpha = 0
	if badN.Validate() == nil {
		t.Fatal("ImPress-N with zero alpha must be invalid")
	}
	badP := NewDesign(ImpressP)
	badP.FracBits = 9
	if badP.Validate() == nil {
		t.Fatal("9 fractional bits must be invalid")
	}
}

func TestPerActPolicy(t *testing.T) {
	tm := dram.DDR5()
	for _, k := range []Kind{NoRP, ExPress} {
		p := NewBankPolicy(NewDesign(k))
		evs := p.OnActivate(0, 42)
		if len(evs) != 1 || evs[0].Row != 42 || evs[0].Weight != clm.One {
			t.Fatalf("%v: OnActivate events = %v", k, evs)
		}
		if evs := p.OnPrecharge(tm.TRAS, 42, tm.TRAS); evs != nil {
			t.Fatalf("%v: unexpected PRE events %v", k, evs)
		}
		if evs := p.Advance(tm.TREFI); evs != nil {
			t.Fatalf("%v: unexpected Advance events %v", k, evs)
		}
	}
}

func TestImpressPPolicyWeights(t *testing.T) {
	tm := dram.DDR5()
	p := NewBankPolicy(NewDesign(ImpressP))
	if evs := p.OnActivate(0, 7); evs != nil {
		t.Fatalf("ImPress-P must not emit at ACT, got %v", evs)
	}
	// Plain RH access: EACT exactly 1.
	evs := p.OnPrecharge(tm.TRAS, 7, tm.TRAS)
	if len(evs) != 1 || evs[0].Weight != clm.One {
		t.Fatalf("RH access events = %v", evs)
	}
	// Row open one extra tRC: EACT exactly 2 (Fig. 11's example).
	evs = p.OnPrecharge(0, 7, tm.TRAS+tm.TRC)
	if len(evs) != 1 || evs[0].Weight != 2*clm.One {
		t.Fatalf("tRAS+tRC access events = %v", evs)
	}
	// Half-tRC extra: EACT = 1.5 exactly.
	evs = p.OnPrecharge(0, 7, tm.TRAS+tm.TRC/2)
	if len(evs) != 1 || evs[0].Weight != clm.One+clm.One/2 {
		t.Fatalf("fractional access events = %v", evs)
	}
}

func TestImpressNWindowDetection(t *testing.T) {
	tm := dram.DDR5()
	p := NewBankPolicy(NewDesign(ImpressN))
	// Open row 5 at t=0 and keep it open for 3 full windows.
	evs := p.OnActivate(0, 5)
	if len(evs) != 1 || evs[0].Weight != clm.One {
		t.Fatalf("ACT events = %v", evs)
	}
	// First boundary (tRC): ORA latches row 5, no match yet.
	if evs := p.Advance(tm.TRC); len(evs) != 0 {
		t.Fatalf("first boundary should not emit, got %v", evs)
	}
	// Second boundary: ORA matches -> one synthetic ACT.
	evs = p.Advance(2 * tm.TRC)
	if len(evs) != 1 || evs[0].Row != 5 || evs[0].Weight != clm.One {
		t.Fatalf("second boundary events = %v", evs)
	}
	// Third boundary: another.
	if evs := p.Advance(3 * tm.TRC); len(evs) != 1 {
		t.Fatalf("third boundary events = %v", evs)
	}
}

func TestImpressNChargesLongOpenRowPerTRC(t *testing.T) {
	// A row held open for N windows accrues about N synthetic ACTs: the
	// Row-Press attack converts into an equivalent Rowhammer attack.
	tm := dram.DDR5()
	p := NewBankPolicy(NewDesign(ImpressN))
	p.OnActivate(0, 9)
	const windows = 72 // one full tREFI span of windows
	total := 0
	for w := dram.Tick(1); w <= windows; w++ {
		total += len(p.Advance(w * tm.TRC))
	}
	if total != windows-1 {
		t.Fatalf("synthetic ACTs = %d, want %d", total, windows-1)
	}
}

func TestImpressNDecoyPatternEvadesWindowDetection(t *testing.T) {
	// The Fig. 10 worst case: the attacker opens the row just before a
	// window boundary, holds it for tRC+tRAS (crossing exactly one
	// boundary), and closes it before the next boundary. The ORA sees the
	// row at only one boundary, so no synthetic ACT is ever generated:
	// ImPress-N's unmitigated Row-Press.
	tm := dram.DDR5()
	p := NewBankPolicy(NewDesign(ImpressN))
	synthetic := 0
	demand := 0
	// ACT within tPRE of the window end: the row finishes opening (tACT
	// later) just after the boundary, so the boundary misses it.
	start := tm.TRC - tm.TPRE + 1
	for round := 0; round < 50; round++ {
		evs := p.OnActivate(start, 3)
		demand++
		synthetic += len(evs) - 1
		end := start + tm.TRC + tm.TRAS // tON = tRC + tRAS
		synthetic += len(p.OnPrecharge(end, 3, end-start))
		// One round spans exactly 2 tRC (tON + tPRE), so the next round
		// starts at the same phase relative to the next-but-one boundary.
		next := start + tm.TRC + tm.TRAS + tm.TPRE
		synthetic += len(p.Advance(next))
		start = next
	}
	if synthetic != 0 {
		t.Fatalf("decoy pattern triggered %d synthetic ACTs; should evade all", synthetic)
	}
	if demand != 50 {
		t.Fatalf("demand ACTs = %d", demand)
	}
}

func TestImpressNReopenWithinWindowDoesNotMatch(t *testing.T) {
	// A row closed and re-opened within a window was NOT open for the
	// entire window, so no synthetic ACT is emitted even though the same
	// row is open at two consecutive boundaries. (The real ACT already
	// charged one unit; emitting another would double-count Rowhammer.)
	tm := dram.DDR5()
	p := NewBankPolicy(NewDesign(ImpressN))
	p.OnActivate(tm.TRC/4, 8)                        // open before boundary 1
	p.OnPrecharge(tm.TRC+tm.TRC/4, 8, tm.TRC)        // close after boundary 1
	evs := p.OnActivate(tm.TRC+tm.TRC/2, 8)          // reopen before boundary 2
	synthetic := len(evs) - 1                        // the ACT itself is 1 event
	synthetic += len(p.Advance(2*tm.TRC + tm.TRC/4)) // boundary 2
	if synthetic != 0 {
		t.Fatalf("synthetic ACTs = %d, want 0 (row was not open the whole window)", synthetic)
	}
}

func TestImpressNSteadyHammerNoDoubleCount(t *testing.T) {
	// A pure Rowhammer loop (ACT, tRAS, PRE, tPRE) at any phase must be
	// charged exactly one unit per real activation: the window mechanism
	// only fires for rows open a full tRC.
	tm := dram.DDR5()
	for _, phase := range []dram.Tick{0, 50, 100, 150, 200, 250, 300, 350} {
		p := NewBankPolicy(NewDesign(ImpressN))
		now := phase
		events := 0
		const rounds = 100
		for i := 0; i < rounds; i++ {
			events += len(p.OnActivate(now, 4))
			events += len(p.OnPrecharge(now+tm.TRAS, 4, tm.TRAS))
			now += tm.TRC
		}
		if events != rounds {
			t.Fatalf("phase %d: %d events for %d RH rounds (double counting)", phase, events, rounds)
		}
	}
}

// Property: for a row held open continuously for k full windows, ImPress-N
// emits exactly k-1 synthetic ACTs regardless of where within a window the
// activation lands.
func TestImpressNWindowCountProperty(t *testing.T) {
	tm := dram.DDR5()
	f := func(offsetRaw uint16, kRaw uint8) bool {
		offset := dram.Tick(offsetRaw) % tm.TRC
		k := dram.Tick(kRaw%20) + 2
		p := NewBankPolicy(NewDesign(ImpressN))
		p.OnActivate(offset, 1)
		end := offset + k*tm.TRC
		synthetic := len(p.OnPrecharge(end, 1, k*tm.TRC))
		// The row is latched at every boundary b with
		// offset+tACT <= b <= end; the first latch does not emit.
		open := offset + tm.TACT
		first := (open + tm.TRC - 1) / tm.TRC // index of first boundary at/after open
		if open%tm.TRC == 0 {
			first = open / tm.TRC
		}
		last := end / tm.TRC
		want := int(last - first) // (last-first+1 latches) - 1
		if want < 0 {
			want = 0
		}
		return synthetic == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDesignNames(t *testing.T) {
	if NewDesign(NoRP).Name() != "no-rp" {
		t.Fatal("NoRP name")
	}
	if NewDesign(ImpressP).Name() != "impress-p" {
		t.Fatal("ImPress-P name")
	}
	if NewDesign(ImpressP).WithFracBits(4).Name() != "impress-p(fracbits=4)" {
		t.Fatal("ImPress-P fracbits name")
	}
	if NewDesign(ImpressN).Name() != "impress-n(alpha=1)" {
		t.Fatal("ImPress-N name: " + NewDesign(ImpressN).Name())
	}
}

// TestPolicyEventsDoNotAllocate pins the owned-buffer contract: once
// warm, no policy allocates per OnActivate, OnPrecharge or Advance, and a
// call that emits nothing returns nil. Each run replays the same
// accesses — a plain hammer, then holds of three and eight tRC windows
// (ImPress-N emits several events at the long hold's PRE), each spanning
// a whole number of windows so ImPress-N's window phase repeats — and
// must emit events, so the buffers are exercised.
func TestPolicyEventsDoNotAllocate(t *testing.T) {
	tm := dram.DDR5()
	for _, k := range []Kind{NoRP, ImpressN, ImpressP} {
		p := NewBankPolicy(NewDesign(k))
		now := dram.Tick(0)
		events := 0
		allocs := testing.AllocsPerRun(100, func() {
			for _, windows := range []dram.Tick{1, 3, 8} {
				tON := windows*tm.TRC - tm.TPRE
				events += len(p.OnActivate(now, 9))
				events += len(p.Advance(now + tm.TRC))
				events += len(p.OnPrecharge(now+tON, 9, tON))
				now += tON + tm.TPRE
			}
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocations per run of three accesses, want 0", k, allocs)
		}
		if events == 0 {
			t.Errorf("%v: no events emitted; the buffers went unexercised", k)
		}
		if evs := p.Advance(now); evs != nil {
			t.Errorf("%v: Advance with the bank closed returned %v, want nil", k, evs)
		}
	}
}

// TestDesignValidateRejectsNonFiniteAlpha: a NaN or infinite alpha is
// invalid for every design kind, including those that ignore alpha,
// and the error is a typed errs.ErrBadSpec.
func TestDesignValidateRejectsNonFiniteAlpha(t *testing.T) {
	for _, kind := range []Kind{NoRP, ExPress, ImpressN, ImpressP} {
		if err := NewDesign(kind).Validate(); err != nil {
			t.Fatalf("%s: default design invalid: %v", kind, err)
		}
		for _, alpha := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if err := NewDesign(kind).WithAlpha(alpha).Validate(); !errors.Is(err, errs.ErrBadSpec) {
				t.Errorf("%s with alpha %v: Validate() = %v, want errs.ErrBadSpec", kind, alpha, err)
			}
		}
	}
}
