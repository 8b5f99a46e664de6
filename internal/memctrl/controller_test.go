package memctrl

import (
	"errors"
	"fmt"
	"testing"

	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/errs"
	"impress/internal/stats"
	"impress/internal/trackers"
)

// tick runs the controller for n DRAM cycles starting at tick start and
// returns the final time.
func tick(c *Controller, start dram.Tick, n int) dram.Tick {
	now := start
	for i := 0; i < n; i++ {
		c.Tick(now)
		now += dram.TicksPerDRAMCycle
	}
	return now
}

func simpleController(design core.Design, factory TrackerFactory, rfmth int) *Controller {
	cfg := DefaultConfig(design, factory, rfmth)
	return New(cfg)
}

// callbackController is simpleController plus a read-completion callback
// (the controller-level replacement for the old per-request OnComplete).
func callbackController(design core.Design, factory TrackerFactory, rfmth int, onRead func(*Request, dram.Tick)) *Controller {
	cfg := DefaultConfig(design, factory, rfmth)
	cfg.OnReadComplete = onRead
	return New(cfg)
}

func TestReadCompletes(t *testing.T) {
	var doneAt dram.Tick
	c := callbackController(core.NewDesign(core.NoRP), nil, 0,
		func(_ *Request, now dram.Tick) { doneAt = now })
	req := &Request{Addr: 0, Loc: c.Map(0)}
	c.Push(0, req)
	end := tick(c, 0, 200)
	if doneAt == 0 {
		t.Fatalf("read did not complete within %d ticks", end)
	}
	s := c.Stats()
	if s.Reads != 1 || s.DemandACTs != 1 || s.RowMisses != 1 {
		t.Fatalf("stats wrong: %+v", s)
	}
	// Timing sanity: ACT + tRCD + CAS + burst ~= 29ns minimum.
	tm := dram.DDR5()
	if doneAt < tm.TACT+tm.TCAS+tm.TBurst {
		t.Fatalf("read completed impossibly fast at %d", doneAt)
	}
}

func TestRowHitAfterOpen(t *testing.T) {
	done := 0
	c := callbackController(core.NewDesign(core.NoRP), nil, 0,
		func(*Request, dram.Tick) { done++ })
	// Two reads to the same row (consecutive lines in a MOP group).
	for i := uint64(0); i < 2; i++ {
		req := &Request{Addr: i * 64, Loc: c.Map(i * 64)}
		c.Push(0, req)
	}
	tick(c, 0, 300)
	if done != 2 {
		t.Fatalf("completed %d reads, want 2", done)
	}
	s := c.Stats()
	if s.DemandACTs != 1 {
		t.Fatalf("same-row reads must share one ACT, got %d", s.DemandACTs)
	}
	if s.RowHits != 2 {
		t.Fatalf("row hits = %d, want 2", s.RowHits)
	}
}

func TestRowConflictCloses(t *testing.T) {
	done := 0
	c := callbackController(core.NewDesign(core.NoRP), nil, 0,
		func(*Request, dram.Tick) { done++ })
	m := DefaultMapper()
	// Two addresses in the same bank, different rows: same group position
	// but different row index. Row stride in bytes:
	groupsPerRow := uint64(m.LinesPerRow / m.MOPLines)
	rowStride := uint64(m.MOPLines) * 64 * uint64(m.Channels) * uint64(m.BanksPerChannel) * groupsPerRow
	a, b := uint64(0), rowStride
	if la, lb := c.Map(a), c.Map(b); la.Bank != lb.Bank || la.Channel != lb.Channel || la.Row == lb.Row {
		t.Fatalf("test addresses do not conflict: %+v vs %+v", la, lb)
	}
	c.Push(0, &Request{Addr: a, Loc: c.Map(a)})
	c.Push(0, &Request{Addr: b, Loc: c.Map(b)})
	tick(c, 0, 1000)
	if done != 2 {
		t.Fatalf("completed %d, want 2", done)
	}
	s := c.Stats()
	if s.RowConflicts == 0 {
		t.Fatal("expected a row-conflict precharge")
	}
	if s.DemandACTs != 2 {
		t.Fatalf("ACTs = %d, want 2", s.DemandACTs)
	}
}

func TestWritePosted(t *testing.T) {
	c := simpleController(core.NewDesign(core.NoRP), nil, 0)
	c.Push(0, &Request{Addr: 0, Write: true, Loc: c.Map(0)})
	tick(c, 0, 500)
	if s := c.Stats(); s.Writes != 1 {
		t.Fatalf("write not drained: %+v", s)
	}
}

func TestRefreshCadence(t *testing.T) {
	c := simpleController(core.NewDesign(core.NoRP), nil, 0)
	tm := dram.DDR5()
	// Run for 4 tREFI with no traffic: expect 4 refreshes per channel.
	cycles := int(4 * tm.TREFI / dram.TicksPerDRAMCycle)
	tick(c, 0, cycles+100)
	if got := c.Channel(0).Refreshes(); got < 3 || got > 5 {
		t.Fatalf("channel refreshes = %d, want ~4", got)
	}
}

func TestTMROForcesClosure(t *testing.T) {
	design := core.NewDesign(core.ExPress).WithTMRO(dram.Ns(96))
	done := 0
	c := callbackController(design, nil, 0, func(*Request, dram.Tick) { done++ })
	c.Push(0, &Request{Addr: 0, Loc: c.Map(0)})
	tick(c, 0, 2000)
	if done != 1 {
		t.Fatal("read did not complete")
	}
	if s := c.Stats(); s.ForcedClosures != 1 {
		t.Fatalf("forced closures = %d, want 1 (tMRO)", s.ForcedClosures)
	}
}

func TestNoRPKeepsRowOpenUntilTONMax(t *testing.T) {
	c := simpleController(core.NewDesign(core.NoRP), nil, 0)
	tm := dram.DDR5()
	c.Push(0, &Request{Addr: 0, Loc: c.Map(0)})
	// Not a write; no completion callback installed. Run for less than
	// tONMax: row must stay
	// open (open-page policy, no design limit).
	loc := c.Map(0)
	tick(c, 0, int(tm.TONMax/dram.TicksPerDRAMCycle)-200)
	if _, open := c.Channel(loc.Channel).Bank(loc.Bank).OpenRow(); !open {
		// Refresh may have closed it; allow that path only if a refresh
		// happened on that channel recently. Simpler check: forced
		// closures must be zero before tONMax.
		if s := c.Stats(); s.ForcedClosures > 0 {
			t.Fatalf("row force-closed before tONMax: %+v", s)
		}
	}
}

func TestGrapheneMitigationTraffic(t *testing.T) {
	factory := func(int) trackers.Tracker { return trackers.NewGrapheneRaw(8, 8*128) } // threshold 8 ACTs
	done := 0
	c := callbackController(core.NewDesign(core.NoRP), factory, 0,
		func(*Request, dram.Tick) { done++ })
	loc := c.Map(0)
	m := DefaultMapper()
	groupsPerRow := uint64(m.LinesPerRow / m.MOPLines)
	rowStride := uint64(m.MOPLines) * 64 * uint64(m.Channels) * uint64(m.BanksPerChannel) * groupsPerRow
	// Hammer two alternating rows in one bank so every access re-ACTs.
	now := dram.Tick(0)
	for i := 0; i < 40; i++ {
		addr := uint64(i%2) * rowStride
		for !c.CanPush(loc, false) {
			c.Tick(now)
			now += dram.TicksPerDRAMCycle
		}
		c.Push(now, &Request{Addr: addr, Loc: c.Map(addr)})
		for j := 0; j < 60; j++ {
			c.Tick(now)
			now += dram.TicksPerDRAMCycle
		}
	}
	s := c.Stats()
	if s.Mitigations == 0 {
		t.Fatalf("hammering 20x each of two rows with threshold 8 must mitigate: %+v", s)
	}
	if s.MitigativeACTs != s.Mitigations*trackers.ActsPerMitigation {
		t.Fatalf("mitigative ACT accounting: %d mitigations but %d ACTs",
			s.Mitigations, s.MitigativeACTs)
	}
}

func TestRFMIssuedForInDRAMTracker(t *testing.T) {
	rng := stats.NewRand(1)
	factory := func(int) trackers.Tracker { return trackers.NewMINT(8, rng.Split()) }
	c := simpleController(core.NewDesign(core.NoRP), factory, 8)
	// Issue enough demand to one bank to cross RFMTH=8.
	m := DefaultMapper()
	groupsPerRow := uint64(m.LinesPerRow / m.MOPLines)
	rowStride := uint64(m.MOPLines) * 64 * uint64(m.Channels) * uint64(m.BanksPerChannel) * groupsPerRow
	now := dram.Tick(0)
	for i := 0; i < 24; i++ {
		addr := uint64(i%2) * rowStride // force re-ACT each time
		for !c.CanPush(c.Map(addr), false) {
			c.Tick(now)
			now += dram.TicksPerDRAMCycle
		}
		c.Push(now, &Request{Addr: addr, Loc: c.Map(addr)})
		for j := 0; j < 60; j++ {
			c.Tick(now)
			now += dram.TicksPerDRAMCycle
		}
	}
	if s := c.Stats(); s.RFMs == 0 {
		t.Fatalf("no RFM issued after >8 ACTs to a bank: %+v", s)
	}
}

func TestImpressNSyntheticACTs(t *testing.T) {
	// A row left open under ImPress-N accrues synthetic window events.
	c := simpleController(core.NewDesign(core.ImpressN), nil, 0)
	c.Push(0, &Request{Addr: 0, Loc: c.Map(0)})
	tm := dram.DDR5()
	tick(c, 0, int(20*tm.TRC/dram.TicksPerDRAMCycle))
	if s := c.Stats(); s.SyntheticACTs < 10 {
		t.Fatalf("synthetic ACTs = %d, want ~18 for a row open 20 windows", s.SyntheticACTs)
	}
}

func TestPushPanicsWhenFull(t *testing.T) {
	c := simpleController(core.NewDesign(core.NoRP), nil, 0)
	loc := c.Map(0)
	for i := 0; c.CanPush(loc, false); i++ {
		c.Push(0, &Request{Addr: uint64(i) * 4096, Loc: loc})
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on overflow push")
		}
	}()
	c.Push(0, &Request{Addr: 0, Loc: loc})
}

// TestRefreshDrainWithTRASHeldRow is the regression test for the
// refresh-drain stall fix: a row activated just before REF becomes due
// cannot precharge until tRAS, so the drain must wait it out — advancing
// channel time on every drain cycle exactly like the no-open-rows path —
// and then issue the refresh and resume demand service.
func TestRefreshDrainWithTRASHeldRow(t *testing.T) {
	done := 0
	c := callbackController(core.NewDesign(core.NoRP), nil, 0,
		func(*Request, dram.Tick) { done++ })
	ch := c.Channel(0)
	tm := dram.DDR5()
	due := ch.NextRefreshDue()
	// Run idle until just before the refresh is due.
	now := dram.Tick(0)
	for now < due-20*dram.TicksPerDRAMCycle {
		c.Tick(now)
		now += dram.TicksPerDRAMCycle
	}
	// Open a row: its ACT lands within tRAS of the refresh due time, so
	// the drain starts while the precharge is still illegal.
	c.Push(now, &Request{Addr: 0, Loc: c.Map(0)})
	loc := c.Map(0)
	opened := false
	budget := int((tm.TRAS + tm.TRFC + 2000*dram.TicksPerDRAMCycle) / dram.TicksPerDRAMCycle)
	for i := 0; i < budget; i++ {
		if _, open := ch.Bank(loc.Bank).OpenRow(); open && now < due {
			opened = true
		}
		c.Tick(now)
		now += dram.TicksPerDRAMCycle
	}
	if !opened {
		t.Fatal("test setup: row never opened before the refresh due time")
	}
	if got := ch.Refreshes(); got == 0 {
		t.Fatalf("refresh never issued while draining a tRAS-held row (now=%d, due=%d)", now, due)
	}
	if done != 1 {
		t.Fatal("demand read did not complete after the refresh drain")
	}
}

// TestWriteDrainHysteresisUnit pins the watermark state machine: drain
// mode engages at 3/4 capacity and persists down to 1/4 capacity.
func TestWriteDrainHysteresisUnit(t *testing.T) {
	const cap = 128
	if nextWriteDrain(false, cap*3/4-1, cap) {
		t.Fatal("drain must not engage below the high watermark")
	}
	if !nextWriteDrain(false, cap*3/4, cap) {
		t.Fatal("drain must engage at the high watermark")
	}
	if !nextWriteDrain(true, cap*3/4-1, cap) {
		t.Fatal("drain must persist below the high watermark (no thrash)")
	}
	if !nextWriteDrain(true, cap/4+1, cap) {
		t.Fatal("drain must persist above the low watermark")
	}
	if nextWriteDrain(true, cap/4, cap) {
		t.Fatal("drain must disengage at the low watermark")
	}
}

// TestWriteDrainHysteresisDrainsUnderReadPressure reproduces the thrash
// the hysteresis fixes: with the write queue at the high watermark and
// reads continuously present, the old cycle-by-cycle 3/4 test served one
// write, dropped below the watermark and stranded the rest behind the
// read stream. With hysteresis the controller stays in drain mode until
// the low watermark, interleaving writes into read gaps.
func TestWriteDrainHysteresisDrainsUnderReadPressure(t *testing.T) {
	c := simpleController(core.NewDesign(core.NoRP), nil, 0)
	cfg := DefaultConfig(core.NewDesign(core.NoRP), nil, 0)
	m := DefaultMapper()
	groupsPerRow := uint64(m.LinesPerRow / m.MOPLines)
	bankStride := uint64(m.MOPLines) * 64 * uint64(m.Channels)
	rowStride := bankStride * uint64(m.BanksPerChannel) * groupsPerRow
	// Fill channel 0's write queue exactly to the high watermark, spread
	// over banks and rows.
	high := cfg.WriteQueueCap * 3 / 4
	for i := 0; i < high; i++ {
		addr := uint64(i%16)*bankStride + uint64(i/16)*rowStride
		c.Push(0, &Request{Addr: addr, Write: true, Loc: c.Map(addr)})
	}
	// Keep reads continuously pending on channel 0 while ticking.
	now := dram.Tick(0)
	nextRead := 0
	for i := 0; i < 6000; i++ {
		if c.PendingReads() < 4 {
			addr := uint64(16+nextRead%8)*bankStride + uint64(nextRead/8)*rowStride
			if c.CanPush(c.Map(addr), false) {
				c.Push(now, &Request{Addr: addr, Loc: c.Map(addr)})
				nextRead++
			}
		}
		c.Tick(now)
		now += dram.TicksPerDRAMCycle
	}
	low := cfg.WriteQueueCap / 4
	if got := c.Stats().Writes; got < uint64(high-low) {
		t.Fatalf("write drain served %d writes under read pressure, want >= %d (high %d -> low %d watermark)",
			got, high-low, high, low)
	}
}

func TestStatsSubRoundTrip(t *testing.T) {
	a := Stats{Reads: 10, DemandACTs: 5, RowHits: 7}
	b := Stats{Reads: 4, DemandACTs: 2, RowHits: 3}
	d := a.Sub(b)
	if d.Reads != 6 || d.DemandACTs != 3 || d.RowHits != 4 {
		t.Fatalf("Sub wrong: %+v", d)
	}
	var sum Stats
	sum.Add(b)
	sum.Add(d)
	if sum != a {
		t.Fatalf("Add(Sub) does not round-trip: %+v vs %+v", sum, a)
	}
}

// TestSubChannelGeometry pins the controller's data-bus sub-channels to
// the DRAM's: both split the banks at BanksPerChannel/2. With 32 banks,
// the last bank of sub-channel 0 and the first of sub-channel 1 must
// issue their reads one command slot apart, not a burst apart on a shared
// bus; with 128 banks, a read to the upper half must not index past the
// controller's two data buses.
func TestSubChannelGeometry(t *testing.T) {
	for _, banks := range []int{32, 128} {
		t.Run(fmt.Sprintf("banks=%d", banks), func(t *testing.T) {
			cfg := DefaultConfig(core.NewDesign(core.NoRP), nil, 0)
			cfg.Mapper.BanksPerChannel = banks
			done := 0
			cfg.OnReadComplete = func(*Request, dram.Tick) { done++ }
			c := New(cfg)
			var reads []dram.CommandEvent
			c.Channel(0).AddObserver(dram.ObserverFunc(func(ev dram.CommandEvent) {
				if ev.Cmd == dram.CmdRD {
					reads = append(reads, ev)
				}
			}))
			lo, hi := banks/2-1, banks/2
			for _, b := range []int{lo, hi, banks - 1} {
				addr := cfg.Mapper.Unmap(Location{Channel: 0, Bank: b})
				c.Push(0, &Request{Addr: addr, Loc: c.Map(addr)})
			}
			tick(c, 0, 200)
			if done != 3 {
				t.Fatalf("completed %d of 3 reads", done)
			}
			if reads[0].Bank != lo || reads[1].Bank != hi {
				t.Fatalf("read order %d, %d; want banks %d, %d", reads[0].Bank, reads[1].Bank, lo, hi)
			}
			tm := dram.DDR5()
			if gap := reads[1].Now - reads[0].Now; gap >= tm.TBurst {
				t.Fatalf("reads on different sub-channels %d ticks apart, want < tBurst (%d): "+
					"the data buses are not split like the DRAM's sub-channels", gap, tm.TBurst)
			}
		})
	}
}

// TestSteadyStatePushTickAllocs holds the controller's queue and
// scheduling path to zero allocations: a row-hit stream pushed and served
// in steady state on a controller without a tracker. ImPress-P emits no
// events at ACT, and the measured window stays between the warmup's ACTs
// and the first refresh, so the policy's per-PRE event slice is not
// measured (asserted below).
func TestSteadyStatePushTickAllocs(t *testing.T) {
	c := simpleController(core.NewDesign(core.ImpressP), nil, 0)
	m := DefaultMapper()
	var addrs []uint64
	for b := 0; b < 12; b++ {
		for col := 0; col < 8; col++ {
			addrs = append(addrs, m.Unmap(Location{Channel: 0, Bank: b, Col: col}))
		}
	}
	now := dram.Tick(0)
	next := 0
	step := func() {
		for c.PendingReads() < 40 {
			addr := addrs[next%len(addrs)]
			c.Push(now, &Request{Addr: addr, Loc: c.Map(addr)})
			next++
		}
		c.Tick(now)
		now += dram.TicksPerDRAMCycle
	}
	for c.Stats().DemandACTs < 12 { // open every row
		step()
	}
	for i := 0; i < 200; i++ { // size every slice
		step()
	}
	before := c.Stats()
	allocs := testing.AllocsPerRun(500, step)
	after := c.Stats()
	if after.DemandACTs != before.DemandACTs || after.RowConflicts != before.RowConflicts ||
		after.Refreshes != before.Refreshes || after.IdleClosures != before.IdleClosures {
		t.Fatalf("measured window was not a pure row-hit stream: %+v -> %+v", before, after)
	}
	if after.Reads == before.Reads {
		t.Fatal("measured window served no reads")
	}
	if allocs != 0 {
		t.Fatalf("steady-state Push+Tick allocates %.2f objects per call, want 0", allocs)
	}
}

// TestRestoreRejectsMisroutedRequest: a checkpoint whose queue holds an
// address that maps to another channel is corrupt, and Restore reports it
// as a bad spec instead of queueing the request on the wrong channel.
func TestRestoreRejectsMisroutedRequest(t *testing.T) {
	c := simpleController(core.NewDesign(core.NoRP), nil, 0)
	addr := c.cfg.Mapper.Unmap(Location{Channel: 1, Bank: 3})
	c.Push(0, &Request{Addr: addr, Loc: c.Map(addr)})
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Channels[0].ReadQ, snap.Channels[1].ReadQ = snap.Channels[1].ReadQ, nil
	if err := simpleController(core.NewDesign(core.NoRP), nil, 0).Restore(snap); !errors.Is(err, errs.ErrBadSpec) {
		t.Fatalf("Restore of a misrouted queue entry = %v, want ErrBadSpec", err)
	}
}
