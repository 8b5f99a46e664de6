package memctrl

import (
	"testing"

	"impress/internal/clm"
	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/stats"
	"impress/internal/trackers"
)

// Liveness under random traffic: every read pushed into the controller
// must eventually complete, for every defense design, with no timing
// panics from the DRAM model (the bank state machines panic on any
// illegal command, so this doubles as a scheduling-legality fuzz test).
func TestRandomTrafficLiveness(t *testing.T) {
	designs := []core.Design{
		core.NewDesign(core.NoRP),
		core.NewDesign(core.ExPress).WithTMRO(dram.Ns(66)),
		core.NewDesign(core.ImpressN),
		core.NewDesign(core.ImpressP),
	}
	for _, d := range designs {
		d := d
		t.Run(d.Name(), func(t *testing.T) {
			rng := stats.NewRand(0xfeed)
			factory := func(int) trackers.Tracker { return trackers.NewGraphene(400) }
			completed := 0
			cfg := DefaultConfig(d, factory, 80)
			cfg.OnReadComplete = func(*Request, dram.Tick) { completed++ }
			c := New(cfg)
			pushed := 0
			now := dram.Tick(0)
			const total = 2000
			for completed < total {
				// Random pushes with random locality.
				for pushed < total && pushed-completed < 40 {
					var addr uint64
					if rng.Bernoulli(0.5) {
						addr = uint64(rng.Uint64n(1<<14) * 64) // hot region
					} else {
						addr = uint64(rng.Uint64n(1<<28) * 64) // cold region
					}
					write := rng.Bernoulli(0.3)
					loc := c.Map(addr)
					if !c.CanPush(loc, write) {
						break
					}
					if write {
						c.Push(now, &Request{Addr: addr, Write: true, Loc: loc})
						completed++ // posted
					} else {
						c.Push(now, &Request{Addr: addr, Loc: loc})
					}
					pushed++
				}
				c.Tick(now)
				now += dram.TicksPerDRAMCycle
				if now > dram.Ms(20) {
					t.Fatalf("liveness violated: %d/%d completed by 20ms", completed, total)
				}
			}
		})
	}
}

// The scheduler must never violate DRAM timing: run dense same-bank
// conflicting traffic (worst case for tRC/tRAS interlocks) with and
// without the tightest tMRO. Bank state machines panic on violations, so
// completing the storm is the proof of legality.
func TestConflictStormTimingLegality(t *testing.T) {
	cases := []struct {
		design        core.Design
		wantConflicts bool // open-page keeps rows open -> conflict PREs
		wantForced    bool // tMRO = tRAS -> forced closures instead
	}{
		{core.NewDesign(core.NoRP), true, false},
		{core.NewDesign(core.ExPress).WithTMRO(dram.Ns(36)), false, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.design.Name(), func(t *testing.T) {
			done := 0
			cfg := DefaultConfig(tc.design, nil, 0)
			cfg.OnReadComplete = func(*Request, dram.Tick) { done++ }
			c := New(cfg)
			m := DefaultMapper()
			groupsPerRow := uint64(m.LinesPerRow / m.MOPLines)
			rowStride := uint64(m.MOPLines) * 64 * uint64(m.Channels) *
				uint64(m.BanksPerChannel) * groupsPerRow
			now := dram.Tick(0)
			const total = 300
			pushedCount := 0
			for done < total && now < dram.Ms(5) {
				for pushedCount < total && pushedCount-done < 30 {
					addr := uint64(pushedCount%7) * rowStride // 7 rows, one bank
					loc := c.Map(addr)
					if !c.CanPush(loc, false) {
						break
					}
					c.Push(now, &Request{Addr: addr, Loc: loc})
					pushedCount++
				}
				c.Tick(now)
				now += dram.TicksPerDRAMCycle
			}
			if done < total {
				t.Fatalf("conflict storm starved: %d/%d", done, total)
			}
			s := c.Stats()
			if tc.wantConflicts && s.RowConflicts == 0 {
				t.Fatal("open-page storm produced no conflict PREs")
			}
			if tc.wantForced && s.ForcedClosures == 0 {
				t.Fatal("tMRO storm produced no forced closures")
			}
		})
	}
}

// refReq is the reference scheduler's copy of one queued request.
type refReq struct {
	addr   uint64
	loc    Location
	arrive dram.Tick
}

// refPick is one demand decision of the reference scheduler: the command,
// its bank and row, and for a column command the index of the request it
// serves in its queue.
type refPick struct {
	ok   bool
	cmd  dram.Command
	bank int
	row  int64
	idx  int
}

// scanPick is the reference FR-FCFS decision for one queue: a single scan
// of every request in arrival order. The oldest ready row hit wins;
// otherwise the oldest request whose bank can take its ACT or conflict
// PRE. Once the oldest request has waited past the starvation cap, only
// it is considered.
func scanPick(cc *channelCtl, now dram.Tick, q []refReq, write bool) refPick {
	if len(q) > 0 && now-q[0].arrive > starvationTicks {
		q = q[:1]
	}
	var work refPick
	for i, r := range q {
		b := r.loc.Bank
		bank := &cc.banks[b]
		switch {
		case bank.mitigOpen:
		case bank.openValid && bank.openRow == r.loc.Row:
			if now >= cc.busFreeAt[cc.ch.SubChannel(b)] && cc.ch.Bank(b).CanColumn(now, r.loc.Row) {
				cmd := dram.CmdRD
				if write {
					cmd = dram.CmdWR
				}
				return refPick{ok: true, cmd: cmd, bank: b, row: r.loc.Row, idx: i}
			}
		case bank.openValid:
			if !work.ok && cc.ch.CanPrecharge(now, b) {
				work = refPick{ok: true, cmd: dram.CmdPRE, bank: b, row: bank.openRow}
			}
		default:
			if !work.ok && cc.ch.CanActivate(now, b) {
				work = refPick{ok: true, cmd: dram.CmdACT, bank: b, row: r.loc.Row}
			}
		}
	}
	return work
}

// scanHorizon is the reference per-request demand horizon of one queue:
// the earliest tick at which any request's next command becomes legal.
func scanHorizon(cc *channelCtl, now dram.Tick, q []refReq) dram.Tick {
	h := dram.TickMax
	for _, r := range q {
		b := r.loc.Bank
		bank := &cc.banks[b]
		switch {
		case bank.mitigOpen:
		case bank.openValid && bank.openRow == r.loc.Row:
			h = min(h, max(cc.ch.Bank(b).EarliestColumn(), cc.busFreeAt[cc.ch.SubChannel(b)]))
		case bank.openValid:
			h = min(h, cc.ch.Bank(b).EarliestPrecharge())
		default:
			h = min(h, cc.ch.EarliestActivate(now, b))
		}
	}
	return h
}

// refChannel mirrors one channel's demand queues in arrival order.
type refChannel struct{ reads, writes []refReq }

// pick is the reference demand step of tickChannel: write drain with
// watermark hysteresis, otherwise reads first and writes when no read is
// queued.
func (rc *refChannel) pick(c *Controller, cc *channelCtl, now dram.Tick) (refPick, bool) {
	if nextWriteDrain(cc.writeDrain, len(rc.writes), c.cfg.WriteQueueCap) {
		if p := scanPick(cc, now, rc.writes, true); p.ok {
			return p, true
		}
		return scanPick(cc, now, rc.reads, false), false
	}
	if p := scanPick(cc, now, rc.reads, false); p.ok || len(rc.reads) > 0 {
		return p, false
	}
	return scanPick(cc, now, rc.writes, true), true
}

func (rc *refChannel) horizon(c *Controller, cc *channelCtl, now dram.Tick) dram.Tick {
	h := scanHorizon(cc, now, rc.reads)
	if nextWriteDrain(cc.writeDrain, len(rc.writes), c.cfg.WriteQueueCap) || len(rc.reads) == 0 {
		h = min(h, scanHorizon(cc, now, rc.writes))
	}
	return h
}

// scheduleSeeds are the checked-in seeds of FuzzScheduleMatchesScan: one
// per design/tracker mode, plus runs that reach each place the scheduling
// index is refreshed with requests queued (TestScheduleSeedsCoverIndexRefreshes).
var scheduleSeeds = []struct {
	seed  uint64
	mode  uint8
	steps uint16
}{
	{1, 0, 8000}, {7920, 1, 8000}, {15839, 2, 8000}, {23758, 3, 8000},
	{31677, 4, 8000}, {39596, 5, 8000}, {47515, 6, 8000}, {55434, 7, 8000},
	{100, 0, 2999}, // a REF drain with requests queued
	{101, 6, 2999}, // an RFM on a bank with queued misses
	{100, 2, 2999}, // a mitigation row opened over queued hits to it
	{102, 0, 2999}, // DropQueued, and Snapshot/Restore, mid-queue
}

// FuzzScheduleMatchesScan drives the bank-indexed scheduler and the
// reference arrival-order scan side by side: seeded random Push, Tick,
// DropQueued and mid-stream Snapshot/Restore, with and without a tracker,
// under ImPress-N and ExPress. Every demand command the controller issues
// (seen through a DRAM observer) must be the reference's pick, an idle
// demand step must match an empty pick, the queues must hold the same
// requests in the same order, NextEvent must never be later than the
// reference per-request horizon, and after every operation the
// incremental scheduling index must equal a from-scratch recomputation.
func FuzzScheduleMatchesScan(f *testing.F) {
	for _, sd := range scheduleSeeds {
		f.Add(sd.seed, sd.mode, sd.steps)
	}
	f.Fuzz(func(t *testing.T, seed uint64, mode uint8, steps uint16) {
		checkScheduleMatchesScan(t, seed, mode, int(steps%12000)+1)
	})
}

// indexRefreshes records which index refresh points a differential run
// reached with requests queued on the refreshed state.
type indexRefreshes struct {
	RefreshDrain   bool // a REF issued with requests queued on its channel
	RFMPendingMiss bool // an RFM on a bank with queued requests (all misses: RFM needs a closed bank)
	MitigOverHits  bool // a mitigation row open over queued hits to that row
	Drop           bool // DropQueued with requests queued
	RestoreQueued  bool // Snapshot and Restore with requests queued
}

// TestScheduleSeedsCoverIndexRefreshes pins that the checked-in fuzz
// seeds exercise every index refresh point with requests queued, so the
// plain test run checks each against the from-scratch recomputation.
func TestScheduleSeedsCoverIndexRefreshes(t *testing.T) {
	var got indexRefreshes
	for _, sd := range scheduleSeeds {
		r := checkScheduleMatchesScan(t, sd.seed, sd.mode, int(sd.steps%12000)+1)
		got.RefreshDrain = got.RefreshDrain || r.RefreshDrain
		got.RFMPendingMiss = got.RFMPendingMiss || r.RFMPendingMiss
		got.MitigOverHits = got.MitigOverHits || r.MitigOverHits
		got.Drop = got.Drop || r.Drop
		got.RestoreQueued = got.RestoreQueued || r.RestoreQueued
	}
	if want := (indexRefreshes{true, true, true, true, true}); got != want {
		t.Fatalf("seeds reach %+v, want every refresh point", got)
	}
}

// checkIndex recomputes every queue's scheduling index from scratch — the
// queued requests against the banks' row, mitigation and DRAM timing
// state — and fails t where the incremental index differs: a bank's
// candidate ticks, a sub-channel minimum, the oldest request, or
// queueHorizon against the horizon of the per-bank candidates.
func checkIndex(t *testing.T, c *Controller, now dram.Tick) {
	t.Helper()
	for ch, cc := range c.channels {
		floor := [2]dram.Tick{cc.ch.ActivateFloor(0), cc.ch.ActivateFloor(1)}
		for qi, q := range []*reqQueue{&cc.readQ, &cc.writeQ} {
			var subMin [2][numCands]dram.Tick
			for s := range subMin {
				for k := range subMin[s] {
					subMin[s][k] = dram.TickMax
				}
			}
			oldSeq, oldBank := uint64(noSeq), -1
			horizon := dram.TickMax
			for b := range q.banks {
				bank, d, sub := &cc.banks[b], cc.ch.Bank(b), cc.ch.SubChannel(b)
				want := [numCands]dram.Tick{dram.TickMax, dram.TickMax, dram.TickMax}
				for _, r := range q.bankReqs(b) {
					if r.seq < oldSeq {
						oldSeq, oldBank = r.seq, b
					}
					switch {
					case bank.mitigOpen:
					case !bank.openValid:
						want[candAct] = d.EarliestActivate()
					case r.row == bank.openRow:
						want[candHit] = d.EarliestColumn()
					default:
						want[candPre] = d.EarliestPrecharge()
					}
				}
				for k := range want {
					if got := q.at[k][b]; got != want[k] {
						t.Fatalf("tick %d channel %d queue %d bank %d: candidate %d indexed at %d, recomputed %d",
							now, ch, qi, b, k, got, want[k])
					}
					subMin[sub][k] = min(subMin[sub][k], want[k])
				}
				horizon = min(horizon, max(want[candHit], cc.busFreeAt[sub]), want[candPre],
					max(want[candAct], floor[sub]))
			}
			if q.subMin != subMin {
				t.Fatalf("tick %d channel %d queue %d: sub-channel minima %v, recomputed %v", now, ch, qi, q.subMin, subMin)
			}
			if q.oldSeq != oldSeq || oldBank >= 0 && q.oldBank != oldBank {
				t.Fatalf("tick %d channel %d queue %d: oldest request %d on bank %d, recomputed %d on bank %d",
					now, ch, qi, q.oldSeq, q.oldBank, oldSeq, oldBank)
			}
			if got := c.queueHorizon(cc, q); got != horizon {
				t.Fatalf("tick %d channel %d queue %d: queueHorizon %d, per-bank candidates give %d", now, ch, qi, got, horizon)
			}
		}
	}
}

// queued reports whether any of c's demand queues holds a request.
func (c *Controller) queued() bool {
	for _, cc := range c.channels {
		if cc.readQ.n > 0 || cc.writeQ.n > 0 {
			return true
		}
	}
	return false
}

// checkScheduleMatchesScan is one differential run. mode bit 0 selects
// ExPress (else ImPress-N), bit 1 attaches a tracker to every bank, and
// bit 2 makes that tracker in-DRAM MINT with RFM (else Graphene, whose
// mitigations the controller issues). It returns the index refresh points
// the run reached with requests queued.
func checkScheduleMatchesScan(t *testing.T, seed uint64, mode uint8, steps int) indexRefreshes {
	var reached indexRefreshes
	rng := stats.NewRand(seed)
	design := core.NewDesign(core.ImpressN)
	if mode&1 != 0 {
		design = core.NewDesign(core.ExPress).WithTMRO(dram.Ns(96))
	}
	var factory TrackerFactory
	rfmth := 0
	if mode&2 != 0 {
		if mode&4 != 0 {
			trng := rng.Split()
			factory = func(int) trackers.Tracker { return trackers.NewMINT(8, trng.Split()) }
			rfmth = 8
		} else {
			factory = func(int) trackers.Tracker { return trackers.NewGrapheneRaw(8, 8*clm.One) }
		}
	}
	cfg := DefaultConfig(design, factory, rfmth)
	var served []Request
	cfg.OnReadComplete = func(req *Request, _ dram.Tick) { served = append(served, *req) }

	type observed struct {
		ch int
		ev dram.CommandEvent
	}
	var events []observed
	build := func() *Controller {
		c := New(cfg)
		for ch := range c.channels {
			c.Channel(ch).AddObserver(dram.ObserverFunc(func(ev dram.CommandEvent) {
				events = append(events, observed{ch, ev})
			}))
		}
		return c
	}
	c := build()
	ref := make([]refChannel, len(c.channels))
	banks := []int{0, 1, 2, 5, 31, 32, 33, 63}
	// The load comes in phases, each with its own push share (per mille
	// of steps): a heavy phase keeps reads queued so writes wait, and an
	// idle one drains the reads so writes that waited past the starvation
	// cap get served. A run's write share is low or high, so the write
	// queue either stays below the drain watermark or crosses it.
	shares := []uint64{0, 150, 450}
	pushShare := shares[rng.Intn(len(shares))]
	writeP := []float64{0.02, 0.3}[rng.Intn(2)]
	now := dram.Tick(0)

	checkHorizon := func(at dram.Tick) {
		t.Helper()
		got := c.NextEvent(at)
		want := dram.TickMax
		for ch, cc := range c.channels {
			if cc.refreshing || cc.ch.RefreshDue(at) {
				return // the refresh drain horizon governs
			}
			want = min(want, ref[ch].horizon(c, cc, at))
		}
		if want = max(want, at); got > want {
			t.Fatalf("tick %d: NextEvent(%d) = %d, later than the per-request horizon %d", now, at, got, want)
		}
	}

	pushBurst := func() {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			loc := Location{
				Channel: rng.Intn(2),
				Bank:    banks[rng.Intn(len(banks))],
				Row:     int64(rng.Intn(4)),
				Col:     rng.Intn(cfg.Mapper.LinesPerRow),
			}
			write := rng.Bernoulli(writeP)
			if !c.CanPush(loc, write) {
				continue
			}
			addr := cfg.Mapper.Unmap(loc)
			// Now and then a request arrives with a past tick, as if it
			// had waited upstream; it reaches the starvation cap soon.
			arrive := now
			if rng.Bernoulli(0.02) {
				arrive = max(0, now-dram.Tick(rng.Uint64n(uint64(2*starvationTicks))))
			}
			c.Push(arrive, &Request{Addr: addr, Write: write, Loc: c.Map(addr)})
			r := refReq{addr: addr, loc: loc, arrive: arrive}
			if write {
				ref[loc.Channel].writes = append(ref[loc.Channel].writes, r)
			} else {
				ref[loc.Channel].reads = append(ref[loc.Channel].reads, r)
			}
		}
	}

	for step := 0; step < steps; step++ {
		checkIndex(t, c, now)
		if rng.Uint64n(1000) == 0 {
			pushShare = shares[rng.Intn(len(shares))]
		}
		switch op := rng.Uint64n(1000); {
		case op < pushShare:
			pushBurst()
		case op < 995: // one Tick, then the event clock's skip to the horizon
			type expect struct {
				check bool
				pick  refPick
				write bool
				evict map[int]bool // banks a mitigation or RFM may precharge
				stats Stats
			}
			exp := make([]expect, len(c.channels))
			for ch, cc := range c.channels {
				e := &exp[ch]
				e.check = !cc.refreshing && !cc.ch.RefreshDue(now)
				e.pick, e.write = ref[ch].pick(c, cc, now)
				e.stats = cc.stats
			}
			events, served = events[:0], served[:0]
			active := c.Tick(now)
			for ch, cc := range c.channels {
				e := &exp[ch]
				for _, o := range events {
					if o.ch != ch {
						continue
					}
					switch {
					case o.ev.Cmd == dram.CmdREF && (cc.readQ.n > 0 || cc.writeQ.n > 0):
						reached.RefreshDrain = true
					case o.ev.Cmd == dram.CmdRFM && cc.readQ.banks[o.ev.Bank].len+cc.writeQ.banks[o.ev.Bank].len > 0:
						reached.RFMPendingMiss = true
					case o.ev.Cmd == dram.CmdACT && o.ev.Mitigative:
						for _, q := range []*reqQueue{&cc.readQ, &cc.writeQ} {
							if q.banks[o.ev.Bank].hit >= 0 {
								reached.MitigOverHits = true
							}
						}
					}
				}
				// The ImPress-N window feed at the start of Tick can queue
				// mitigation or RFM work that evicts a demand row before
				// the demand step runs; such banks stay listed after Tick.
				e.evict = map[int]bool{}
				for _, b := range cc.mitigBanks {
					e.evict[b] = true
				}
				for _, b := range cc.rfmBanks {
					e.evict[b] = true
				}
				var evs []dram.CommandEvent
				for _, o := range events {
					if o.ch == ch {
						evs = append(evs, o.ev)
					}
				}
				if len(evs) > 1 {
					t.Fatalf("tick %d channel %d: %d commands in one cycle", now, ch, len(evs))
				}
				if !e.check {
					continue
				}
				if len(evs) == 0 {
					if e.pick.ok {
						t.Fatalf("tick %d channel %d: issued nothing, reference picks %+v", now, ch, e.pick)
					}
					continue
				}
				ev := evs[0]
				demand := false
				switch ev.Cmd {
				case dram.CmdRD, dram.CmdWR:
					demand = true
				case dram.CmdACT:
					demand = !ev.Mitigative
				case dram.CmdPRE:
					demand = !ev.Mitigative && !e.evict[ev.Bank] &&
						cc.stats.ForcedClosures == e.stats.ForcedClosures &&
						cc.stats.IdleClosures == e.stats.IdleClosures
				}
				if !demand {
					continue
				}
				if !e.pick.ok || ev.Cmd != e.pick.cmd || ev.Bank != e.pick.bank || ev.Row != e.pick.row {
					t.Fatalf("tick %d channel %d: issued %v bank %d row %d, reference picks %+v",
						now, ch, ev.Cmd, ev.Bank, ev.Row, e.pick)
				}
				if ev.Cmd == dram.CmdRD || ev.Cmd == dram.CmdWR {
					q := &ref[ch].reads
					if e.write {
						q = &ref[ch].writes
					}
					if ev.Cmd == dram.CmdRD {
						want := Request{Addr: (*q)[e.pick.idx].addr, Loc: (*q)[e.pick.idx].loc}
						var got []Request
						for _, r := range served {
							if r.Loc.Channel == ch {
								got = append(got, r)
							}
						}
						if len(got) != 1 || got[0] != want {
							t.Fatalf("tick %d channel %d: completed %+v, reference serves %+v", now, ch, got, want)
						}
					}
					*q = append((*q)[:e.pick.idx], (*q)[e.pick.idx+1:]...)
				}
			}
			for ch, cc := range c.channels {
				for _, qs := range []struct {
					got  *reqQueue
					want []refReq
				}{{&cc.readQ, ref[ch].reads}, {&cc.writeQ, ref[ch].writes}} {
					got := qs.got.ordered()
					if len(got) != len(qs.want) || len(got) != qs.got.n {
						t.Fatalf("tick %d channel %d: controller queues %d requests (n=%d), reference %d",
							now, ch, len(got), qs.got.n, len(qs.want))
					}
					for i := range got {
						if got[i].addr != qs.want[i].addr || got[i].arrive != qs.want[i].arrive {
							t.Fatalf("tick %d channel %d: queue position %d holds %#x@%d, reference %#x@%d",
								now, ch, i, got[i].addr, got[i].arrive, qs.want[i].addr, qs.want[i].arrive)
						}
					}
				}
			}
			if active {
				now += dram.TicksPerDRAMCycle
				continue
			}
			// The event clock asks for the horizon right after an idle
			// Tick and may skip to it; a Push in between must be in it.
			if rng.Bernoulli(0.1) {
				pushBurst()
			}
			checkHorizon(now + 1)
			next := now + dram.TicksPerDRAMCycle
			if h := c.NextEvent(now + 1); h > next && rng.Bernoulli(0.5) {
				next = h + (dram.TicksPerDRAMCycle-h%dram.TicksPerDRAMCycle)%dram.TicksPerDRAMCycle
			}
			now = next
			checkHorizon(now) // a recomputed horizon
		case op < 997:
			reached.Drop = reached.Drop || c.queued()
			c.DropQueued()
			for ch := range ref {
				ref[ch] = refChannel{}
			}
		default: // checkpoint and continue on a fresh controller
			reached.RestoreQueued = reached.RestoreQueued || c.queued()
			snap, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			c = build()
			if err := c.Restore(snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkIndex(t, c, now)
	return reached
}
