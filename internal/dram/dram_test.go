package dram

import (
	"testing"
	"testing/quick"
)

func TestTickConversions(t *testing.T) {
	if Ns(48) != 384 {
		t.Fatalf("48ns = %d ticks, want 384", Ns(48))
	}
	if Ns(48).DRAMCycles() != 128 {
		t.Fatalf("tRC = %d DRAM cycles, want 128 (paper's shift-by-7)", Ns(48).DRAMCycles())
	}
	if Ns(1).CPUCycles() != 4 {
		t.Fatalf("1ns = %d CPU cycles, want 4", Ns(1).CPUCycles())
	}
	if Us(1) != Ns(1000) || Ms(1) != Us(1000) {
		t.Fatal("unit conversions inconsistent")
	}
	if Ns(3900).ToNs() != 3900 {
		t.Fatal("ToNs roundtrip failed")
	}
}

func TestDDR5TimingsMatchTableI(t *testing.T) {
	tm := DDR5()
	cases := []struct {
		name string
		got  Tick
		ns   int64
	}{
		{"tACT", tm.TACT, 12},
		{"tPRE", tm.TPRE, 12},
		{"tRAS", tm.TRAS, 36},
		{"tRC", tm.TRC, 48},
		{"tREFI", tm.TREFI, 3900},
		{"tRFC", tm.TRFC, 350},
		{"tRFM", tm.TRFM, 205},
	}
	for _, c := range cases {
		if c.got != Ns(c.ns) {
			t.Errorf("%s = %dns, want %dns", c.name, c.got.ToNs(), c.ns)
		}
	}
	if tm.TREFW != Ms(32) {
		t.Errorf("tREFW = %d, want 32ms", tm.TREFW)
	}
	if tm.TONMax != Ns(19500) {
		t.Errorf("tONMax = %dns, want 19500ns", tm.TONMax.ToNs())
	}
	if err := tm.Validate(); err != nil {
		t.Fatalf("DDR5 timings invalid: %v", err)
	}
}

func TestTimingsValidateRejectsBroken(t *testing.T) {
	bad := DDR5()
	bad.TRC = bad.TRAS // tRAS+tPRE > tRC
	if bad.Validate() == nil {
		t.Fatal("expected validation error for tRC < tRAS+tPRE")
	}
	bad2 := DDR5()
	bad2.TRFC = bad2.TREFI + 1
	if bad2.Validate() == nil {
		t.Fatal("expected validation error for tRFC >= tREFI")
	}
}

func TestActsPerRefreshWindow(t *testing.T) {
	tm := DDR5()
	// 32ms / 48ns = 666,666 activations.
	if got := tm.ActsPerRefreshWindow(); got != 666666 {
		t.Fatalf("ActsPerRefreshWindow = %d, want 666666", got)
	}
	if got := tm.RefreshesPerWindow(); got != 8205 {
		t.Fatalf("RefreshesPerWindow = %d, want 8205 (~8192 JEDEC groups)", got)
	}
}

func TestBankActivatePrechargeCycle(t *testing.T) {
	tm := DDR5()
	b := NewBank(tm)
	if b.state != BankIdle {
		t.Fatal("new bank not idle")
	}
	if !b.CanActivate(0) {
		t.Fatal("idle bank should accept ACT at t=0")
	}
	b.Activate(0, 42)
	if row, ok := b.OpenRow(); !ok || row != 42 {
		t.Fatalf("OpenRow = %d,%v", row, ok)
	}
	if b.CanActivate(tm.TRC) {
		t.Fatal("active bank must not accept ACT")
	}
	if b.CanPrecharge(tm.TRAS - 1) {
		t.Fatal("PRE before tRAS must be illegal")
	}
	if !b.CanPrecharge(tm.TRAS) {
		t.Fatal("PRE at tRAS must be legal")
	}
	tON := b.Precharge(tm.TRAS)
	if tON != tm.TRAS {
		t.Fatalf("tON = %d, want tRAS", tON)
	}
	// After PRE, next ACT must wait tPRE.
	if b.CanActivate(tm.TRAS + tm.TPRE - 1) {
		t.Fatal("ACT during precharge must be illegal")
	}
	if !b.CanActivate(tm.TRAS + tm.TPRE) {
		t.Fatal("ACT after tPRE must be legal")
	}
}

func TestBankTRCEnforcement(t *testing.T) {
	tm := DDR5()
	b := NewBank(tm)
	b.Activate(0, 1)
	b.Precharge(tm.TRAS)
	// tRAS + tPRE == tRC for Table I, so next ACT is legal exactly at tRC.
	if b.CanActivate(tm.TRC - 1) {
		t.Fatal("ACT before tRC must be illegal")
	}
	if !b.CanActivate(tm.TRC) {
		t.Fatal("back-to-back ACT at tRC must be legal")
	}
	b.Activate(tm.TRC, 2)
	if b.acts != 2 {
		t.Fatalf("Activations = %d", b.acts)
	}
}

func TestBankColumnTiming(t *testing.T) {
	tm := DDR5()
	b := NewBank(tm)
	b.Activate(0, 7)
	if b.CanColumn(tm.TACT-1, 7) {
		t.Fatal("column before tRCD must be illegal")
	}
	if b.CanColumn(tm.TACT, 8) {
		t.Fatal("column to wrong row must be illegal")
	}
	if !b.CanColumn(tm.TACT, 7) {
		t.Fatal("column at tRCD must be legal")
	}
	done := b.Column(tm.TACT, 7)
	if done != tm.TACT+tm.TCAS+tm.TBurst {
		t.Fatalf("column completion = %d", done)
	}
}

func TestBankRowPressOpenTime(t *testing.T) {
	tm := DDR5()
	b := NewBank(tm)
	b.Activate(0, 3)
	longOpen := tm.TREFI // a Row-Press style long open
	tON := b.Precharge(longOpen)
	if tON != longOpen {
		t.Fatalf("tON = %d, want %d", tON, longOpen)
	}
}

func TestBankRefresh(t *testing.T) {
	tm := DDR5()
	b := NewBank(tm)
	b.Refresh(0, tm.TRFC)
	if b.state != BankRefreshing {
		t.Fatal("bank should be refreshing")
	}
	if b.CanActivate(tm.TRFC - 1) {
		t.Fatal("ACT during REF must be illegal")
	}
	b.Tick(tm.TRFC)
	if b.state != BankIdle {
		t.Fatal("bank should return to idle after tRFC")
	}
	if !b.CanActivate(tm.TRFC) {
		t.Fatal("ACT after REF must be legal")
	}
}

func TestBankIllegalOpsPanic(t *testing.T) {
	tm := DDR5()
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("PRE idle", func() { NewBank(tm).Precharge(1000) })
	mustPanic("double ACT", func() {
		b := NewBank(tm)
		b.Activate(0, 1)
		b.Activate(tm.TRC, 2)
	})
	mustPanic("column idle", func() { NewBank(tm).Column(1000, 1) })
}

// Property: for any legal sequence of (ACT, wait w, PRE) rounds, the
// reported tON always equals the wait, and the bank's activation count
// equals the number of rounds.
func TestBankRoundTripProperty(t *testing.T) {
	tm := DDR5()
	f := func(waits []uint16) bool {
		b := NewBank(tm)
		now := Tick(0)
		rounds := 0
		for _, w := range waits {
			if rounds >= 50 {
				break
			}
			tON := tm.TRAS + Tick(w)*TicksPerDRAMCycle
			for !b.CanActivate(now) {
				now++
			}
			b.Activate(now, int64(rounds))
			got := b.Precharge(now + tON)
			if got != tON {
				return false
			}
			now += tON
			rounds++
		}
		return b.acts == uint64(rounds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestChannelBasics(t *testing.T) {
	tm := DDR5()
	ch := NewChannel(ChannelConfig{Banks: 4, Timings: tm})
	if ch.NumBanks() != 4 {
		t.Fatal("bank count wrong")
	}
	var events []CommandEvent
	ch.AddObserver(ObserverFunc(func(ev CommandEvent) { events = append(events, ev) }))

	ch.Activate(0, 1, 100, false)
	ch.Column(tm.TACT, 1, 100, false)
	tON := ch.Precharge(tm.TRAS+Ns(100), 1, false)
	if tON != tm.TRAS+Ns(100) {
		t.Fatalf("tON = %d", tON)
	}
	if len(events) != 3 {
		t.Fatalf("observer saw %d events, want 3", len(events))
	}
	if events[0].Cmd != CmdACT || events[1].Cmd != CmdRD || events[2].Cmd != CmdPRE {
		t.Fatalf("event order wrong: %v %v %v", events[0].Cmd, events[1].Cmd, events[2].Cmd)
	}
	if events[2].TON != tON {
		t.Fatalf("PRE event tON = %d, want %d", events[2].TON, tON)
	}
	if ch.demandACTs != 1 || ch.mitigativeACTs != 0 {
		t.Fatal("ACT accounting wrong")
	}
}

func TestChannelMitigativeAccounting(t *testing.T) {
	tm := DDR5()
	ch := NewChannel(ChannelConfig{Banks: 1, Timings: tm})
	ch.Activate(0, 0, 5, true)
	ch.Precharge(tm.TRAS, 0, true)
	if ch.mitigativeACTs != 1 || ch.demandACTs != 0 {
		t.Fatal("mitigative ACT accounting wrong")
	}
}

func TestChannelRefreshSchedule(t *testing.T) {
	tm := DDR5()
	ch := NewChannel(ChannelConfig{Banks: 2, Timings: tm})
	if ch.RefreshDue(tm.TREFI - 1) {
		t.Fatal("refresh due too early")
	}
	if !ch.RefreshDue(tm.TREFI) {
		t.Fatal("refresh should be due at tREFI")
	}
	if !ch.CanRefresh(tm.TREFI) {
		t.Fatal("idle banks should allow refresh")
	}
	ch.Refresh(tm.TREFI)
	if ch.refreshes != 1 {
		t.Fatal("refresh count wrong")
	}
	if ch.RefreshDue(tm.TREFI + 1) {
		t.Fatal("refresh should not be due immediately after REF")
	}
	// Banks are busy for tRFC.
	if ch.CanActivate(tm.TREFI+tm.TRFC-1, 0) {
		t.Fatal("ACT during REF must be illegal")
	}
	if !ch.CanActivate(tm.TREFI+tm.TRFC, 0) {
		t.Fatal("ACT after REF must be legal")
	}
}

func TestChannelRFM(t *testing.T) {
	tm := DDR5()
	ch := NewChannel(ChannelConfig{Banks: 2, Timings: tm})
	now := Tick(0)
	const rfmth = 4
	for i := 0; i < rfmth; i++ {
		for !ch.CanActivate(now, 0) {
			now += TicksPerDRAMCycle
		}
		ch.Activate(now, 0, int64(i), false)
		now += tm.TRAS
		ch.Precharge(now, 0, false)
	}
	if ch.actsSinceRFM[0] < rfmth {
		t.Fatal("RFM should be due after RFMTH ACTs")
	}
	if ch.actsSinceRFM[1] >= rfmth {
		t.Fatal("bank 1 had no ACTs; RFM must not be due")
	}
	for !ch.CanActivate(now, 0) {
		now += TicksPerDRAMCycle
	}
	ch.RFM(now, 0)
	if ch.actsSinceRFM[0] != 0 {
		t.Fatal("RAA counter should reset after RFM")
	}
	if ch.rfms != 1 {
		t.Fatal("RFM count wrong")
	}
	// RFM blocks only its bank for tRFM.
	if ch.CanActivate(now+tm.TRFM-1, 0) {
		t.Fatal("ACT during RFM must be illegal")
	}
	if !ch.CanActivate(now+tm.TRFM, 0) {
		t.Fatal("ACT after RFM must be legal")
	}
}

func TestCommandStrings(t *testing.T) {
	for cmd, want := range map[Command]string{
		CmdACT: "ACT", CmdPRE: "PRE", CmdRD: "RD", CmdWR: "WR", CmdREF: "REF", CmdRFM: "RFM",
	} {
		if cmd.String() != want {
			t.Errorf("%v.String() = %q", int(cmd), cmd.String())
		}
	}
	for st, want := range map[BankState]string{
		BankIdle: "idle", BankActive: "active", BankRefreshing: "refreshing",
	} {
		if st.String() != want {
			t.Errorf("state string %q != %q", st.String(), want)
		}
	}
}
