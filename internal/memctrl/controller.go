package memctrl

import (
	"math/bits"

	"impress/internal/clm"
	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/trackers"
)

// Request is one memory transaction handed to the controller by the LLC.
// Push copies it into the controller's queues, so the caller may reuse
// or stack-allocate it. Read completion is reported through
// Config.OnReadComplete rather than a per-request callback: a closure per
// request would be an allocation on the miss path (hotpath rule,
// DESIGN.md §10), and the owner that pushed the request can recover its
// own state from the completed request's address.
type Request struct {
	Addr  uint64
	Write bool
	Loc   Location
}

// TrackerFactory builds one tracker instance per bank.
type TrackerFactory func(bank int) trackers.Tracker

// Config parameterizes the controller.
type Config struct {
	Mapper  Mapper
	Timings dram.Timings
	Design  core.Design
	// NewTracker creates the per-bank tracker (already tuned to the
	// design's T*); nil disables tracking entirely (unprotected baseline).
	NewTracker TrackerFactory
	// RFMTH is the RFM cadence in (weighted) activations per bank; it is
	// honored only when the trackers are in-DRAM. Zero disables RFM.
	RFMTH int
	// ReadQueueCap and WriteQueueCap bound the per-channel queues.
	ReadQueueCap  int
	WriteQueueCap int
	// IdleCloseAfter is the adaptive open-page timeout: a row with no
	// activity for this long is precharged. This is a standard
	// performance policy (it bounds the Row-Press exposure of *benign*
	// idle rows and the EACT inflation ImPress-P would otherwise charge
	// them), NOT a security mechanism — it is orders of magnitude larger
	// than ExPress's tMRO and applies identically to every design,
	// including the No-RP baseline. Zero disables it.
	IdleCloseAfter dram.Tick
	// OnReadComplete, when non-nil, is called once per completed read
	// with the finished request and its data-return tick. It replaces a
	// per-request callback field: one controller-level function pointer
	// costs nothing per request, where a closure per miss would allocate
	// on the hot path. The *Request is valid only during the call.
	OnReadComplete func(req *Request, done dram.Tick)
}

// DefaultConfig returns the Table II controller over the given design.
func DefaultConfig(design core.Design, newTracker TrackerFactory, rfmth int) Config {
	return Config{
		Mapper:         DefaultMapper(),
		Timings:        design.Timings,
		Design:         design,
		NewTracker:     newTracker,
		RFMTH:          rfmth,
		ReadQueueCap:   64,
		WriteQueueCap:  128,
		IdleCloseAfter: dram.Us(1),
	}
}

// Stats aggregates controller counters (per channel; Controller sums).
type Stats struct {
	Reads, Writes      uint64
	RowHits, RowMisses uint64
	RowConflicts       uint64
	DemandACTs         uint64
	MitigativeACTs     uint64
	Mitigations        uint64
	RFMs               uint64
	Refreshes          uint64
	ForcedClosures     uint64 // rows closed by tMRO / tONMax
	IdleClosures       uint64 // rows closed by the adaptive idle timeout
	ReadLatencySum     uint64 // in ticks
	SyntheticACTs      uint64 // ImPress-N window events / ImPress-P has none
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.RowHits += other.RowHits
	s.RowMisses += other.RowMisses
	s.RowConflicts += other.RowConflicts
	s.DemandACTs += other.DemandACTs
	s.MitigativeACTs += other.MitigativeACTs
	s.Mitigations += other.Mitigations
	s.RFMs += other.RFMs
	s.Refreshes += other.Refreshes
	s.ForcedClosures += other.ForcedClosures
	s.IdleClosures += other.IdleClosures
	s.ReadLatencySum += other.ReadLatencySum
	s.SyntheticACTs += other.SyntheticACTs
}

// Sub returns s minus other, for warmup-interval accounting.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		Reads:          s.Reads - other.Reads,
		Writes:         s.Writes - other.Writes,
		RowHits:        s.RowHits - other.RowHits,
		RowMisses:      s.RowMisses - other.RowMisses,
		RowConflicts:   s.RowConflicts - other.RowConflicts,
		DemandACTs:     s.DemandACTs - other.DemandACTs,
		MitigativeACTs: s.MitigativeACTs - other.MitigativeACTs,
		Mitigations:    s.Mitigations - other.Mitigations,
		RFMs:           s.RFMs - other.RFMs,
		Refreshes:      s.Refreshes - other.Refreshes,
		ForcedClosures: s.ForcedClosures - other.ForcedClosures,
		IdleClosures:   s.IdleClosures - other.IdleClosures,
		ReadLatencySum: s.ReadLatencySum - other.ReadLatencySum,
		SyntheticACTs:  s.SyntheticACTs - other.SyntheticACTs,
	}
}

// Scale returns s with every counter multiplied by f (rounded to
// nearest), for extrapolating sampled-interval measurements to a full
// run. Like Add and Sub it is a hand-maintained field list; the
// exhaustiveness test fails if a counter is missing.
func (s Stats) Scale(f float64) Stats {
	scale := func(v uint64) uint64 { return uint64(float64(v)*f + 0.5) }
	return Stats{
		Reads:          scale(s.Reads),
		Writes:         scale(s.Writes),
		RowHits:        scale(s.RowHits),
		RowMisses:      scale(s.RowMisses),
		RowConflicts:   scale(s.RowConflicts),
		DemandACTs:     scale(s.DemandACTs),
		MitigativeACTs: scale(s.MitigativeACTs),
		Mitigations:    scale(s.Mitigations),
		RFMs:           scale(s.RFMs),
		Refreshes:      scale(s.Refreshes),
		ForcedClosures: scale(s.ForcedClosures),
		IdleClosures:   scale(s.IdleClosures),
		ReadLatencySum: scale(s.ReadLatencySum),
		SyntheticACTs:  scale(s.SyntheticACTs),
	}
}

// starvationTicks is the FR-FCFS anti-starvation age cap: a request older
// than this gets exclusive service priority (2 microseconds).
const starvationTicks = dram.Tick(2000 * dram.TicksPerNs)

// closeEvent is a scheduled forced row closure (tMRO/tONMax deadline).
type closeEvent struct {
	at   dram.Tick
	bank int
	// gen guards against stale events: it must match the bank's ACT
	// generation for the event to apply.
	gen uint64
}

// closeHeap is a hand-rolled min-heap ordered by deadline. It does not
// implement container/heap.Interface on purpose: the standard heap
// boxes every element into an interface{} per push and pop, an
// allocation the controller tick cannot afford (hotpath rule,
// DESIGN.md §10).
type closeHeap []closeEvent

func (h *closeHeap) push(ev closeEvent) {
	s := append(*h, ev)
	*h = s
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent].at <= s[i].at {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *closeHeap) pop() closeEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	s = s[:n]
	for i := 0; ; {
		small := i
		if l := 2*i + 1; l < n && s[l].at < s[small].at {
			small = l
		}
		if r := 2*i + 2; r < n && s[r].at < s[small].at {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}

// bankCtl is the controller's per-bank state.
type bankCtl struct {
	policy  core.BankPolicy
	tracker trackers.Tracker

	eactSinceRFM clm.EACT
	rfmQueued    bool
	// mitigQ holds victim rows awaiting mitigative refresh (MC-side
	// trackers only).
	mitigQ []int64
	// mitigOpen marks that the currently open row is a mitigation ACT
	// that auto-precharges at earliest opportunity.
	mitigOpen bool

	// Mirror of the DRAM bank's open-row state (hot-path cache).
	openValid bool
	openRow   int64
	actGen    uint64
	lastUse   dram.Tick // last ACT or column command (idle-close clock)
}

// channelCtl is the controller's per-channel state.
type channelCtl struct {
	id    int
	ch    *dram.Channel
	banks []bankCtl

	readQ  reqQueue
	writeQ reqQueue

	// busFreeAt gates column commands per sub-channel data bus.
	busFreeAt [2]dram.Tick

	// refreshing marks refresh draining in progress.
	refreshing bool

	// writeDrain marks write-drain mode (watermark hysteresis; see
	// nextWriteDrain).
	writeDrain bool

	// forcedClose schedules tMRO/tONMax closures.
	forcedClose closeHeap

	// mitigBanks lists banks with pending mitigation work (queue or an
	// open mitigation row).
	mitigBanks []int
	// rfmBanks lists banks whose weighted ACT counter crossed RFMTH.
	rfmBanks []int

	// openBanks counts banks with open rows (refresh drain fast path);
	// openMask is the bitmap of those banks, walked in ascending order.
	openBanks int
	openMask  bankSet
	// windowAt is a lower bound on the earliest ImPress-N window boundary
	// of any open bank (core.BankPolicy.NextEvent): before it, every open
	// bank's Advance is a no-op, so the window step skips the banks. An
	// ACT mins it down; the window step recomputes it exactly.
	windowAt dram.Tick
	// idleDeadline is a lower bound on the earliest tick any open row's
	// idle-close timeout can fire. Activations and column commands
	// min it down; the sweep at expiry either closes a row or recomputes
	// the exact bound, so rows close at their exact timeout instead of on
	// a fixed-period scan.
	idleDeadline dram.Tick

	stats Stats
}

// Controller is the multi-channel DDR5 memory controller.
type Controller struct {
	cfg      Config
	amap     lineMap
	channels []*channelCtl

	windowEnd  dram.Tick
	inDRAM     bool
	openLimit  dram.Tick
	isImpressN bool

	// issues counts column commands (reads + writes) across channels; it
	// is carried in checkpoints.
	issues uint64

	// completed holds the read handed to OnReadComplete; a controller
	// field rather than a local, so passing its address does not allocate.
	completed Request
}

// New builds a controller; panics on invalid configuration.
func New(cfg Config) *Controller {
	if err := cfg.Mapper.Validate(); err != nil {
		panic(err)
	}
	if err := cfg.Design.Validate(); err != nil {
		panic(err)
	}
	if cfg.ReadQueueCap <= 0 || cfg.WriteQueueCap <= 0 {
		panic("memctrl: queue capacities must be positive")
	}
	c := &Controller{
		cfg:        cfg,
		amap:       newLineMap(cfg.Mapper),
		windowEnd:  cfg.Timings.TREFW,
		openLimit:  cfg.Design.RowOpenLimit(),
		isImpressN: cfg.Design.Kind == core.ImpressN,
	}
	for chID := 0; chID < cfg.Mapper.Channels; chID++ {
		nb := cfg.Mapper.BanksPerChannel
		ch := dram.NewChannel(dram.ChannelConfig{
			Banks:   nb,
			Timings: cfg.Timings,
		})
		half := 0
		for half < nb && ch.SubChannel(half) == 0 {
			half++
		}
		cc := &channelCtl{
			id:           chID,
			ch:           ch,
			banks:        make([]bankCtl, nb),
			readQ:        newReqQueue(nb, half, cfg.ReadQueueCap),
			writeQ:       newReqQueue(nb, half, cfg.WriteQueueCap),
			openMask:     newBankSet(nb),
			idleDeadline: dram.TickMax,
		}
		// Each bank's mitigation queue starts with room for one
		// mitigation's victims, so issuing mitigations does not allocate.
		var victims []int64
		if cfg.NewTracker != nil {
			victims = make([]int64, nb*2*trackers.BlastRadius)
		}
		for b := range cc.banks {
			cc.banks[b].policy = core.NewBankPolicy(cfg.Design)
			if cfg.NewTracker != nil {
				cc.banks[b].tracker = cfg.NewTracker(chID*cfg.Mapper.BanksPerChannel + b)
				cc.banks[b].mitigQ = victims[b*2*trackers.BlastRadius : b*2*trackers.BlastRadius : (b+1)*2*trackers.BlastRadius]
			}
		}
		c.channels = append(c.channels, cc)
	}
	if cfg.NewTracker != nil {
		c.inDRAM = c.channels[0].banks[0].tracker.InDRAM()
	}
	return c
}

// Map exposes the address mapping.
func (c *Controller) Map(addr uint64) Location { return c.amap.Map(addr) }

// DropQueued discards every queued demand request in every channel. The
// sampled clock's quiesce calls it after force-completing all in-flight
// line fetches: the dropped reads' MSHRs are already satisfied, and the
// dropped writes model work the fast-forwarded gap skips. In-service
// bank timing, defense and tracker state are untouched — the next
// detailed window continues from them.
func (c *Controller) DropQueued() {
	for _, cc := range c.channels {
		cc.readQ.reset()
		cc.writeQ.reset()
	}
}

// CanPush reports whether channel loc.Channel can accept another request
// of the given kind.
func (c *Controller) CanPush(loc Location, write bool) bool {
	cc := c.channels[loc.Channel]
	if write {
		return cc.writeQ.n < c.cfg.WriteQueueCap
	}
	return cc.readQ.n < c.cfg.ReadQueueCap
}

// Push enqueues a request; callers must check CanPush first (it panics on
// overflow, which indicates a simulator bug, not backpressure).
func (c *Controller) Push(now dram.Tick, req *Request) {
	if !c.CanPush(req.Loc, req.Write) {
		panic("memctrl: push into full queue")
	}
	cc := c.channels[req.Loc.Channel]
	q := &cc.readQ
	if req.Write {
		q = &cc.writeQ
	}
	b := req.Loc.Bank
	q.push(b, queued{addr: req.Addr, row: req.Loc.Row, col: req.Loc.Col, arrive: now},
		cc.banks[b].openValid, cc.banks[b].openRow)
	c.index(cc, q, b)
}

// PendingReads returns the total queued read count (for drain loops).
func (c *Controller) PendingReads() int {
	n := 0
	for _, cc := range c.channels {
		n += cc.readQ.n
	}
	return n
}

// Stats returns the summed per-channel statistics.
func (c *Controller) Stats() Stats {
	var s Stats
	for _, cc := range c.channels {
		s.Add(cc.stats)
	}
	return s
}

// Channel exposes the underlying DRAM channel (tests, energy accounting).
func (c *Controller) Channel(ch int) *dram.Channel { return c.channels[ch].ch }

// feed routes defense-policy events into the bank's tracker and queues any
// mitigations.
func (c *Controller) feed(cc *channelCtl, b int, events []core.Event, demandACT bool) {
	if len(events) == 0 {
		return
	}
	bank := &cc.banks[b]
	rfmDue := clm.EACT(c.cfg.RFMTH) * clm.One
	for i, ev := range events {
		bank.eactSinceRFM += ev.Weight
		if !demandACT || i > 0 {
			cc.stats.SyntheticACTs++
		}
		if bank.tracker == nil {
			continue
		}
		for _, aggressor := range bank.tracker.OnActivation(ev.Row, ev.Weight) {
			if len(bank.mitigQ) == 0 && !bank.mitigOpen {
				cc.mitigBanks = append(cc.mitigBanks, b)
			}
			// The victims: BlastRadius rows on each side of the
			// aggressor, nearest first.
			for d := int64(1); d <= trackers.BlastRadius; d++ {
				bank.mitigQ = append(bank.mitigQ, aggressor-d, aggressor+d)
			}
			cc.stats.Mitigations++
		}
	}
	if c.inDRAM && c.cfg.RFMTH > 0 && bank.eactSinceRFM >= rfmDue && !bank.rfmQueued {
		bank.rfmQueued = true
		cc.rfmBanks = append(cc.rfmBanks, b)
	}
}

// Tick advances the controller by one DRAM cycle at time now. It issues
// at most one command per channel per cycle. The return value reports
// whether the controller is active — it issued a command or is draining
// toward a refresh — and therefore must be ticked again next cycle; when
// it returns false, NextEvent gives the next cycle that needs a Tick and
// the caller may skip the cycles in between (absent new Pushes).
//
//impress:hotpath
func (c *Controller) Tick(now dram.Tick) bool {
	// Refresh-window boundary: all victims refreshed, trackers reset.
	if now >= c.windowEnd {
		for _, cc := range c.channels {
			for b := range cc.banks {
				if cc.banks[b].tracker != nil {
					cc.banks[b].tracker.ResetWindow()
				}
			}
		}
		c.windowEnd += c.cfg.Timings.TREFW
	}
	active := false
	for _, cc := range c.channels {
		if c.tickChannel(cc, now) {
			active = true
		}
	}
	return active
}

func (c *Controller) tickChannel(cc *channelCtl, now dram.Tick) bool {
	// 1. Refresh has absolute priority once due: drain open rows, then REF.
	if cc.refreshing || cc.ch.RefreshDue(now) {
		cc.refreshing = true
		// Advance passive bank state on every drain cycle, whether or not
		// rows are still open. The channel's time-advance contract is that
		// Tick is lazy and idempotent, but a drain cycle that neither
		// ticks nor issues would leave refreshing banks formally "busy"
		// for observers that read state without a preceding Tick; both
		// drain paths now advance time identically.
		cc.ch.Tick(now)
		if cc.openBanks == 0 {
			if cc.ch.CanRefresh(now) {
				cc.ch.Refresh(now)
				cc.stats.Refreshes++
				cc.refreshing = false
				c.retimePending(cc) // every bank recovers from the REF
			}
			return true
		}
		// Precharge one open row per cycle (command-bus limit).
		for w, word := range cc.openMask {
			for ; word != 0; word &= word - 1 {
				b := w<<6 | bits.TrailingZeros64(word)
				if cc.ch.CanPrecharge(now, b) {
					c.closeRow(cc, b, now, cc.banks[b].mitigOpen)
					return true
				}
			}
		}
		return true // waiting for tRAS of some open row
	}

	// 2. ImPress-N window advancement for open banks, once the earliest
	// open bank's window boundary is due. Ascending bank order fixes the
	// order of mitigBanks appends.
	if c.isImpressN && cc.openBanks > 0 && now >= cc.windowAt {
		next := dram.TickMax
		for w, word := range cc.openMask {
			for ; word != 0; word &= word - 1 {
				b := w<<6 | bits.TrailingZeros64(word)
				c.feed(cc, b, cc.banks[b].policy.Advance(now), false)
				next = min(next, cc.banks[b].policy.NextEvent())
			}
		}
		cc.windowAt = next
	}

	// 3. Forced closures (tMRO for ExPress, tONMax otherwise).
	for len(cc.forcedClose) > 0 && cc.forcedClose[0].at <= now {
		ev := cc.forcedClose[0]
		bank := &cc.banks[ev.bank]
		if !bank.openValid || bank.actGen != ev.gen {
			cc.forcedClose.pop() // stale: row already closed
			continue
		}
		if cc.ch.CanPrecharge(now, ev.bank) {
			cc.forcedClose.pop()
			cc.stats.ForcedClosures++
			c.closeRow(cc, ev.bank, now, bank.mitigOpen)
			return true
		}
		break // tRAS not yet satisfied; retry next cycle
	}

	// 3b. Adaptive idle-close: when the earliest possible timeout
	// expires, close one idle row per cycle; if none is closable the
	// sweep recomputes the exact next deadline, so the channel neither
	// scans periodically nor closes late.
	if c.cfg.IdleCloseAfter > 0 && cc.openBanks > 0 && now >= cc.idleDeadline {
		next := dram.TickMax
		for w, word := range cc.openMask {
			for ; word != 0; word &= word - 1 {
				b := w<<6 | bits.TrailingZeros64(word)
				bank := &cc.banks[b]
				if bank.mitigOpen {
					continue
				}
				due := bank.lastUse + c.cfg.IdleCloseAfter
				if due > now {
					next = min(next, due)
					continue
				}
				if cc.ch.CanPrecharge(now, b) {
					cc.stats.IdleClosures++
					c.closeRow(cc, b, now, false)
					return true
				}
				// tRAS-held: retry at the earliest legal PRE.
				next = min(next, cc.ch.Bank(b).EarliestPrecharge())
			}
		}
		cc.idleDeadline = next
	}

	// 4. Mitigation work: close finished mitigation rows, open next victims.
	if len(cc.mitigBanks) > 0 && c.mitigationStep(cc, now) {
		return true
	}

	// 5. RFM for in-DRAM trackers.
	if len(cc.rfmBanks) > 0 && c.rfmStep(cc, now) {
		return true
	}

	// 6. Demand scheduling: FR-FCFS. Write drain uses watermark
	// hysteresis (enter at 3/4 cap, drain down to 1/4 cap) and gives
	// writes bus priority while engaged — without both, the 3/4 test
	// re-evaluated every cycle flipped the controller in and out of
	// write mode at the boundary, and a steady read stream could starve
	// a watermarked write queue indefinitely; see nextWriteDrain.
	cc.writeDrain = nextWriteDrain(cc.writeDrain, cc.writeQ.n, c.cfg.WriteQueueCap)
	if cc.writeDrain {
		return c.schedule(cc, now, &cc.writeQ, true) || c.schedule(cc, now, &cc.readQ, false)
	}
	return c.schedule(cc, now, &cc.readQ, false) ||
		cc.readQ.n == 0 && c.schedule(cc, now, &cc.writeQ, true)
}

// nextWriteDrain is the write-drain hysteresis: drain mode starts when the
// write queue reaches the 3/4-capacity high watermark and persists until
// the queue falls to the 1/4-capacity low watermark. Without the low
// watermark the 3/4 test re-evaluated every cycle made the controller
// thrash in and out of write mode at the boundary, serving exactly one
// write per crossing; with it, each crossing drains half the queue in one
// burst. Stats impact: Writes arrive in longer bursts (better write row
// locality, fewer read/write turnarounds), so WriteQueue-full
// backpressure and the RowHits/RowMisses split shift slightly compared to
// the pre-hysteresis controller. The function is pure so the event-driven
// clock can predict drain mode without mutating it.
func nextWriteDrain(drain bool, qlen, cap int) bool {
	if drain {
		return qlen > cap/4
	}
	return qlen >= cap*3/4
}

// NextEvent returns the earliest tick >= now at which a Tick call could
// change controller or DRAM state (issue a command, feed a tracker,
// start a refresh drain, run the idle-close sweep, or reset the tracker
// window). The event-driven clock may skip every DRAM cycle strictly
// before the returned horizon: Tick at those cycles is provably a no-op.
// The horizon is conservative — waking at it and finding nothing to do is
// allowed — but never late: no state change can precede it. Callers must
// not Push requests between computing the horizon and consuming it.
func (c *Controller) NextEvent(now dram.Tick) dram.Tick {
	h := c.windowEnd
	for _, cc := range c.channels {
		if h <= now {
			return now
		}
		if e := c.channelNextEvent(cc, now); e < h {
			h = e
		}
	}
	if h < now {
		h = now
	}
	return h
}

// channelNextEvent mirrors tickChannel's priority steps, returning the
// earliest tick at which any of them could act.
func (c *Controller) channelNextEvent(cc *channelCtl, now dram.Tick) dram.Tick {
	// 1. Refresh drain in progress: REF issues once every bank recovers;
	// with rows still open, the next drain PRE fires at the earliest tRAS
	// expiry.
	if cc.refreshing || cc.ch.RefreshDue(now) {
		if cc.openBanks == 0 {
			h := now
			for b := 0; b < cc.ch.NumBanks(); b++ {
				if r := cc.ch.Bank(b).ReadyAt(); r > h {
					h = r
				}
			}
			return h
		}
		h := dram.TickMax
		for w, word := range cc.openMask {
			for ; word != 0; word &= word - 1 {
				h = min(h, cc.ch.Bank(w<<6|bits.TrailingZeros64(word)).EarliestPrecharge())
			}
		}
		return max(h, now)
	}

	// Idle channel horizon: the next refresh due time bounds every skip.
	h := cc.ch.NextRefreshDue()

	// 2. ImPress-N window boundaries of open banks: the Advance feed can
	// emit (and queue mitigations) exactly at these ticks, and windowAt
	// bounds them from below.
	if c.isImpressN && cc.openBanks > 0 {
		h = min(h, cc.windowAt)
	}

	// 3. Forced closures. Stale heads (row already closed or re-opened)
	// are pruned here as well as in tickChannel — they are behaviorally
	// inert, so the earlier pruning cannot diverge from cycle-accurate
	// stepping, and it keeps this query O(1) instead of scanning a heap
	// that holds one entry per ACT of the last tONMax. A live head fires
	// exactly at its deadline: openLimit >= tRAS guarantees the row is
	// precharge-legal by then, and heap order makes it the earliest live
	// deadline.
	for len(cc.forcedClose) > 0 {
		ev := cc.forcedClose[0]
		bank := &cc.banks[ev.bank]
		if !bank.openValid || bank.actGen != ev.gen {
			cc.forcedClose.pop()
			continue
		}
		if ev.at < h {
			h = ev.at
		}
		break
	}

	// 3b. The idle-close sweep fires (closing a row or recomputing the
	// deadline — both state changes) at idleDeadline whenever rows are
	// open.
	if c.cfg.IdleCloseAfter > 0 && cc.openBanks > 0 && cc.idleDeadline < h {
		h = cc.idleDeadline
	}

	// 4. Mitigation work.
	for _, b := range cc.mitigBanks {
		bank := &cc.banks[b]
		var e dram.Tick
		switch {
		case bank.mitigOpen:
			e = cc.ch.Bank(b).EarliestPrecharge()
		case len(bank.mitigQ) == 0:
			continue // stale entry; pruned lazily by mitigationStep
		case bank.openValid:
			e = cc.ch.Bank(b).EarliestPrecharge() // demand row eviction
		default:
			e = cc.ch.EarliestActivate(now, b)
		}
		if e < h {
			h = e
		}
	}

	// 5. RFM.
	for _, b := range cc.rfmBanks {
		bank := &cc.banks[b]
		var e dram.Tick
		if bank.openValid {
			e = cc.ch.Bank(b).EarliestPrecharge()
		} else {
			e = cc.ch.Bank(b).ReadyAt()
		}
		if e < h {
			h = e
		}
	}

	// 6. Demand queues. Write candidates only count when the next Tick
	// would serve writes; queue lengths cannot change during a skip, so
	// the prediction is exact.
	h = min(h, c.queueHorizon(cc, &cc.readQ))
	if nextWriteDrain(cc.writeDrain, cc.writeQ.n, c.cfg.WriteQueueCap) || cc.readQ.n == 0 {
		h = min(h, c.queueHorizon(cc, &cc.writeQ))
	}
	return max(h, now)
}

// queueHorizon returns the earliest tick at which any queued request
// could make schedule issue a command: a column command once the open row
// and data bus allow, a conflict PRE once tRAS expires, or an ACT once
// the bank and sub-channel rate limits allow. It reads only the index's
// sub-channel minima; because the data bus and the ACT floor are shared
// by a sub-channel's banks, max(min, shared) over the minima equals the
// minimum over the banks. Banks parked behind an open mitigation row
// contribute nothing; the mitigation horizon covers them. The result may
// be earlier than the actual issue tick (FR-FCFS picks one command per
// cycle and the anti-starvation cap can restrict service to the oldest
// request) — an early wake-up is a no-op, never a divergence.
//
//impress:hotpath
func (c *Controller) queueHorizon(cc *channelCtl, q *reqQueue) dram.Tick {
	h := dram.TickMax
	for s := range cc.busFreeAt {
		hitAt, workAt := q.subReadyAt(s, cc.busFreeAt[s], cc.ch.ActivateFloor(s))
		h = min(h, hitAt, workAt)
	}
	return h
}

// index recomputes bank b's entries in q's scheduling index from the
// bank's candidates and its DRAM timing (see reqQueue). Every change to
// either goes through here: Push, issue, ACT, PRE, REF, RFM, a mitigation
// row opening, and Restore.
//
//impress:hotpath
func (c *Controller) index(cc *channelCtl, q *reqQueue, b int) {
	t := [numCands]dram.Tick{dram.TickMax, dram.TickMax, dram.TickMax}
	bq := &q.banks[b]
	if bank := &cc.banks[b]; !bank.mitigOpen {
		d := cc.ch.Bank(b)
		switch {
		case !bank.openValid:
			if bq.miss >= 0 {
				t[candAct] = d.EarliestActivate()
			}
		default:
			if bq.hit >= 0 {
				t[candHit] = d.EarliestColumn()
			}
			if bq.miss >= 0 {
				t[candPre] = d.EarliestPrecharge()
			}
		}
	}
	q.setTicks(b, &t)
}

// retime re-indexes bank b in both queues after its DRAM timing or its
// mitigation state changed with its row state unchanged.
func (c *Controller) retime(cc *channelCtl, b int) {
	c.index(cc, &cc.readQ, b)
	c.index(cc, &cc.writeQ, b)
}

// retimePending re-indexes every bank with queued requests (after a REF,
// which moves every bank's recovery; an empty bank's entries are all
// dram.TickMax whatever its timing).
func (c *Controller) retimePending(cc *channelCtl) {
	for _, q := range [...]*reqQueue{&cc.readQ, &cc.writeQ} {
		for w, word := range q.pending {
			for ; word != 0; word &= word - 1 {
				c.index(cc, q, w<<6|bits.TrailingZeros64(word))
			}
		}
	}
}

// mitigationStep performs one command of mitigation work; returns true if
// a command was issued.
func (c *Controller) mitigationStep(cc *channelCtl, now dram.Tick) bool {
	for i := 0; i < len(cc.mitigBanks); i++ {
		b := cc.mitigBanks[i]
		bank := &cc.banks[b]
		if bank.mitigOpen {
			if cc.ch.CanPrecharge(now, b) {
				c.closeRow(cc, b, now, true)
				if len(bank.mitigQ) == 0 {
					cc.mitigBanks = append(cc.mitigBanks[:i], cc.mitigBanks[i+1:]...)
				}
				return true
			}
			continue
		}
		if len(bank.mitigQ) == 0 {
			cc.mitigBanks = append(cc.mitigBanks[:i], cc.mitigBanks[i+1:]...)
			i--
			continue
		}
		if bank.openValid {
			// A demand row occupies the bank; close it to make room once
			// legal (mitigations take priority to bound exposure).
			if cc.ch.CanPrecharge(now, b) {
				cc.stats.RowConflicts++
				c.closeRow(cc, b, now, false)
				return true
			}
			continue
		}
		if cc.ch.CanActivate(now, b) {
			victim := bank.mitigQ[0]
			// Shift down rather than re-slice, so appends reuse the array.
			bank.mitigQ = bank.mitigQ[:copy(bank.mitigQ, bank.mitigQ[1:])]
			// Marked before the ACT, whose re-index then parks the bank's
			// demand candidates behind the mitigation row.
			bank.mitigOpen = true
			c.activate(cc, b, victim, now, true)
			cc.stats.MitigativeACTs++
			return true
		}
	}
	return false
}

// rfmStep issues one RFM if possible; returns true if a command was issued.
func (c *Controller) rfmStep(cc *channelCtl, now dram.Tick) bool {
	for i := 0; i < len(cc.rfmBanks); i++ {
		b := cc.rfmBanks[i]
		bank := &cc.banks[b]
		if bank.openValid {
			// Close the row first (an RFM-forced conflict).
			if cc.ch.CanPrecharge(now, b) {
				cc.stats.RowConflicts++
				c.closeRow(cc, b, now, false)
				return true
			}
			continue
		}
		cc.ch.Tick(now)
		if cc.ch.Bank(b).CanRefresh(now) {
			cc.ch.RFM(now, b)
			c.retime(cc, b)
			bank.eactSinceRFM = 0
			bank.rfmQueued = false
			cc.rfmBanks = append(cc.rfmBanks[:i], cc.rfmBanks[i+1:]...)
			cc.stats.RFMs++
			if bank.tracker != nil {
				// In-DRAM mitigation happens under the RFM itself; no
				// extra bus traffic.
				cc.stats.Mitigations += uint64(len(bank.tracker.OnRFM()))
			}
			return true
		}
	}
	return false
}

// schedule attempts to issue one command for the given queue: the oldest
// ready row hit wins; otherwise the oldest request whose bank can take
// its ACT (idle bank) or conflict PRE. Readiness is per bank, so each
// bank's cached oldest hit and oldest miss stand for all of its requests,
// and the index's sub-channel minima say which sub-channels hold a ready
// candidate at all: a pass that cannot issue visits no bank, and one that
// can visits only the pending banks of the ready sub-channels.
//
//impress:hotpath
func (c *Controller) schedule(cc *channelCtl, now dram.Tick, q *reqQueue, isWrite bool) bool {
	if q.n == 0 {
		return false
	}
	floor := [2]dram.Tick{cc.ch.ActivateFloor(0), cc.ch.ActivateFloor(1)}
	var ready [2]bool
	for s := range ready {
		hitAt, workAt := q.subReadyAt(s, cc.busFreeAt[s], floor[s])
		ready[s] = min(hitAt, workAt) <= now
	}
	hitBank, workBank := -1, -1
	if ready[0] || ready[1] {
		// Anti-starvation age cap: once the oldest request has waited past
		// the threshold, service is restricted to it so a stream of
		// younger row hits cannot defer it indefinitely (standard FR-FCFS
		// guard).
		if old, bq := q.oldBank, &q.banks[q.oldBank]; now-q.nodes[bq.head].arrive > starvationTicks {
			s := q.subOf(old)
			hitAt, workAt := q.readyAt(old, cc.busFreeAt[s], floor[s])
			if bq.hit == bq.head && hitAt <= now {
				hitBank = old
			} else if bq.miss == bq.head && workAt <= now {
				workBank = old
			}
		} else {
			hitBank, workBank = c.pick(cc, now, q, &ready, &floor)
		}
	}
	switch {
	case hitBank >= 0:
		c.issueColumn(cc, q, hitBank, now, isWrite)
	case workBank < 0:
		return false
	case cc.banks[workBank].openValid:
		cc.stats.RowConflicts++
		c.closeRow(cc, workBank, now, false)
	default:
		bq := &q.banks[workBank]
		c.activate(cc, workBank, q.nodes[bq.miss].row, now, false)
		cc.stats.DemandACTs++
		cc.stats.RowMisses++
	}
	return true
}

// pick is the FR-FCFS choice over the pending banks of the ready
// sub-channels: the bank of the oldest ready hit and the bank of the
// oldest ready miss, -1 when there is none.
//
//impress:hotpath
func (c *Controller) pick(cc *channelCtl, now dram.Tick, q *reqQueue, ready *[2]bool, floor *[2]dram.Tick) (hitBank, workBank int) {
	hitBank, workBank = -1, -1
	hitSeq, workSeq := uint64(noSeq), uint64(noSeq)
	for s, ok := range ready {
		if !ok {
			continue
		}
		lo, hi := q.subRange(s)
		for w := lo >> 6; w<<6 < hi; w++ {
			for word := q.pending.within(w, lo, hi); word != 0; word &= word - 1 {
				b := w<<6 | bits.TrailingZeros64(word)
				bq := &q.banks[b]
				hitAt, workAt := q.readyAt(b, cc.busFreeAt[s], floor[s])
				if hitAt <= now && bq.hitSeq < hitSeq {
					hitBank, hitSeq = b, bq.hitSeq
				}
				if workAt <= now && bq.missSeq < workSeq {
					workBank, workSeq = b, bq.missSeq
				}
			}
		}
	}
	return hitBank, workBank
}

// issueColumn serves bank b's oldest row hit.
func (c *Controller) issueColumn(cc *channelCtl, q *reqQueue, b int, now dram.Tick, isWrite bool) {
	bq := &q.banks[b]
	req := q.nodes[bq.hit]
	done := cc.ch.Column(now, b, req.row, isWrite)
	cc.busFreeAt[cc.ch.SubChannel(b)] = now + c.cfg.Timings.TBurst
	bank := &cc.banks[b]
	bank.lastUse = now
	c.touchIdleDeadline(cc, now)
	c.issues++
	cc.stats.RowHits++
	q.remove(b, bq.hit, bank.openValid, bank.openRow)
	c.index(cc, q, b)
	if isWrite {
		cc.stats.Writes++
		return
	}
	cc.stats.Reads++
	cc.stats.ReadLatencySum += uint64(done - req.arrive)
	if c.cfg.OnReadComplete != nil {
		c.completed = Request{Addr: req.addr, Loc: Location{Channel: cc.id, Bank: b, Row: req.row, Col: req.col}}
		c.cfg.OnReadComplete(&c.completed, done)
	}
}

// touchIdleDeadline lowers the channel's idle-close bound for a row last
// used at now. The bound is conservative: a row touched again later
// leaves an early (no-op) sweep behind, which recomputes the exact
// deadline.
func (c *Controller) touchIdleDeadline(cc *channelCtl, now dram.Tick) {
	if c.cfg.IdleCloseAfter > 0 {
		if d := now + c.cfg.IdleCloseAfter; d < cc.idleDeadline {
			cc.idleDeadline = d
		}
	}
}

func (c *Controller) activate(cc *channelCtl, b int, row int64, now dram.Tick, mitigative bool) {
	cc.ch.Activate(now, b, row, mitigative)
	bank := &cc.banks[b]
	bank.openValid = true
	bank.openRow = row
	bank.actGen++
	bank.lastUse = now
	c.touchIdleDeadline(cc, now)
	cc.openBanks++
	cc.openMask.add(b)
	c.refreshCandidates(cc, b)
	cc.forcedClose.push(closeEvent{at: now + c.openLimit, bank: b, gen: bank.actGen})
	if !mitigative {
		c.feed(cc, b, bank.policy.OnActivate(now, row), true)
	}
	if c.isImpressN {
		cc.windowAt = min(cc.windowAt, bank.policy.NextEvent())
	}
	// Mitigative activations do not participate in tracking: they are
	// controller-generated refreshes, not attacker-controllable traffic.
}

func (c *Controller) closeRow(cc *channelCtl, b int, now dram.Tick, mitigative bool) {
	bank := &cc.banks[b]
	row := bank.openRow
	tON := cc.ch.Precharge(now, b, mitigative)
	bank.openValid = false
	bank.mitigOpen = false // stale mitigBanks entries are pruned lazily
	cc.openBanks--
	cc.openMask.remove(b)
	c.refreshCandidates(cc, b)
	if !mitigative {
		c.feed(cc, b, bank.policy.OnPrecharge(now, row, tON), false)
	}
}

// refreshCandidates recomputes bank b's FR-FCFS candidates and their
// index entries in both queues after its row state changed.
func (c *Controller) refreshCandidates(cc *channelCtl, b int) {
	bank := &cc.banks[b]
	cc.readQ.refresh(b, bank.openValid, bank.openRow)
	cc.writeQ.refresh(b, bank.openValid, bank.openRow)
	c.retime(cc, b)
}
