package dram

import "fmt"

// Command enumerates DRAM bus commands.
type Command int

const (
	// CmdACT opens a row in a bank.
	CmdACT Command = iota
	// CmdPRE closes the open row of a bank.
	CmdPRE
	// CmdRD reads a column of the open row.
	CmdRD
	// CmdWR writes a column of the open row.
	CmdWR
	// CmdREF refreshes one refresh group (modeled all-bank).
	CmdREF
	// CmdRFM is DDR5 Refresh Management: gives the in-DRAM tracker a
	// mitigation opportunity for one bank.
	CmdRFM
)

// String implements fmt.Stringer.
func (c Command) String() string {
	switch c {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdREF:
		return "REF"
	case CmdRFM:
		return "RFM"
	default:
		return fmt.Sprintf("Command(%d)", int(c))
	}
}

// CommandEvent describes one command as seen on the channel's command bus.
// Observers (in-DRAM trackers, ImPress policies, statistics) receive every
// event in issue order.
type CommandEvent struct {
	Now  Tick
	Cmd  Command
	Bank int
	Row  int64 // valid for ACT/PRE/RD/WR
	// TON is, for CmdPRE only, how long the row had been open (the
	// Row-Press exposure of the access that just ended).
	TON Tick
	// Mitigative marks ACT/PRE pairs issued as victim-refresh mitigations
	// rather than demand traffic.
	Mitigative bool
}

// Observer receives every command issued on a channel.
type Observer interface {
	OnCommand(ev CommandEvent)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(ev CommandEvent)

// OnCommand implements Observer.
func (f ObserverFunc) OnCommand(ev CommandEvent) { f(ev) }

// ChannelConfig sizes a channel.
type ChannelConfig struct {
	Banks   int // banks per channel (paper: 32 banks x 2 sub-channels)
	Timings Timings
}

// Channel is one DRAM channel: a set of banks sharing a command bus, a
// refresh engine, and per-bank RFM activation counters (the DDR5 Rolling
// Accumulated ACT counters that trigger RFM).
//
// Channel enforces command legality; scheduling policy belongs to the
// memory controller.
type Channel struct {
	cfg   ChannelConfig
	banks []*Bank

	observers []Observer

	// Refresh bookkeeping: REF is due every tREFI.
	nextRefreshDue Tick

	// Per-bank ACT counters since the last RFM (RAA counters).
	actsSinceRFM []int

	// Per-sub-channel activation-rate state: the last 4 ACT times (tFAW
	// ring buffer) and the most recent ACT (tRRD). Banks are split evenly
	// into two sub-channels (Table II: 32 banks x 2 sub-channels).
	actRing    [2][4]Tick
	actRingPos [2]int
	lastSubACT [2]Tick

	demandACTs     uint64
	mitigativeACTs uint64
	refreshes      uint64
	rfms           uint64
}

// NewChannel builds a channel with cfg. It panics on invalid configuration
// because configuration is static program input.
func NewChannel(cfg ChannelConfig) *Channel {
	if cfg.Banks <= 0 {
		panic("dram: channel needs at least one bank")
	}
	if err := cfg.Timings.Validate(); err != nil {
		panic(err)
	}
	ch := &Channel{
		cfg:            cfg,
		banks:          make([]*Bank, cfg.Banks),
		actsSinceRFM:   make([]int, cfg.Banks),
		nextRefreshDue: cfg.Timings.TREFI,
	}
	for i := range ch.banks {
		ch.banks[i] = NewBank(cfg.Timings)
	}
	start := -cfg.Timings.TFAW
	for s := range ch.actRing {
		ch.lastSubACT[s] = -cfg.Timings.TRRD
		for i := range ch.actRing[s] {
			ch.actRing[s][i] = start
		}
	}
	return ch
}

// SubChannel returns the sub-channel index of a bank: the lower half of
// the banks is on sub-channel 0, the upper half on 1. The channel applies
// tRRD/tFAW per sub-channel and the controller gates each sub-channel's
// data bus, so both must split the banks by this one function.
func (c *Channel) SubChannel(bank int) int {
	if bank < c.cfg.Banks/2 {
		return 0
	}
	return 1
}

// ActivateFloor returns the earliest tick at which sub-channel sub's
// activation-rate limits (tRRD after its last ACT and the tFAW window
// over its last four) allow another ACT, absent further commands. It is
// the same for every bank of the sub-channel, so a scheduler can compute
// it once per decision instead of once per bank.
func (c *Channel) ActivateFloor(sub int) Tick {
	return max(c.lastSubACT[sub]+c.cfg.Timings.TRRD, c.actRing[sub][c.actRingPos[sub]]+c.cfg.Timings.TFAW)
}

// NumBanks returns the number of banks.
func (c *Channel) NumBanks() int { return c.cfg.Banks }

// Bank returns bank i (for inspection; mutation goes through Channel).
func (c *Channel) Bank(i int) *Bank { return c.banks[i] }

// AddObserver registers an observer for all subsequent commands.
func (c *Channel) AddObserver(o Observer) { c.observers = append(c.observers, o) }

func (c *Channel) notify(ev CommandEvent) {
	for _, o := range c.observers {
		o.OnCommand(ev)
	}
}

// Tick advances passive bank state at time now.
func (c *Channel) Tick(now Tick) {
	for _, b := range c.banks {
		b.Tick(now)
	}
}

// CanActivate reports whether bank can accept ACT at now, honoring the
// per-bank timing (tRC, busy states) and the sub-channel activation-rate
// limits (tRRD and the four-activate window tFAW).
func (c *Channel) CanActivate(now Tick, bank int) bool {
	c.banks[bank].Tick(now)
	if !c.banks[bank].CanActivate(now) {
		return false
	}
	// tRRD after the sub-channel's last ACT, and the oldest of its last 4
	// ACTs at least tFAW in the past.
	return now >= c.ActivateFloor(c.SubChannel(bank))
}

// Activate issues ACT(bank,row). mitigative marks mitigation traffic.
func (c *Channel) Activate(now Tick, bank int, row int64, mitigative bool) {
	if !c.CanActivate(now, bank) {
		panic("dram: illegal ACT (bank timing or tRRD/tFAW violated)")
	}
	c.banks[bank].Activate(now, row)
	s := c.SubChannel(bank)
	c.actRing[s][c.actRingPos[s]] = now
	c.actRingPos[s] = (c.actRingPos[s] + 1) % len(c.actRing[s])
	c.lastSubACT[s] = now
	c.actsSinceRFM[bank]++
	if mitigative {
		c.mitigativeACTs++
	} else {
		c.demandACTs++
	}
	c.notify(CommandEvent{Now: now, Cmd: CmdACT, Bank: bank, Row: row, Mitigative: mitigative})
}

// EarliestActivate returns the earliest tick >= now at which ACT(bank)
// could become legal assuming no further commands are issued: the bank's
// own recovery (tRC and PRE/REF completion) combined with the
// sub-channel activation-rate horizons (tRRD and the tFAW window). A bank
// with an open row returns TickMax; it needs a PRE first, which
// reschedules the horizon. The result is exact: CanActivate(e, bank) is
// true at the returned tick e (absent intervening commands), and false at
// every tick before it.
func (c *Channel) EarliestActivate(now Tick, bank int) Tick {
	e := c.banks[bank].EarliestActivate()
	if e == TickMax {
		return e
	}
	return max(e, c.ActivateFloor(c.SubChannel(bank)), now)
}

// CanPrecharge reports whether bank can accept PRE at now.
func (c *Channel) CanPrecharge(now Tick, bank int) bool {
	return c.banks[bank].CanPrecharge(now)
}

// Precharge issues PRE(bank), returning the closed row's tON.
func (c *Channel) Precharge(now Tick, bank int, mitigative bool) Tick {
	row, ok := c.banks[bank].OpenRow()
	if !ok {
		panic("dram: precharge of idle bank")
	}
	tON := c.banks[bank].Precharge(now)
	c.notify(CommandEvent{Now: now, Cmd: CmdPRE, Bank: bank, Row: row, TON: tON, Mitigative: mitigative})
	return tON
}

// Column issues a RD or WR and returns the data-completion tick.
func (c *Channel) Column(now Tick, bank int, row int64, write bool) Tick {
	done := c.banks[bank].Column(now, row)
	cmd := CmdRD
	if write {
		cmd = CmdWR
	}
	c.notify(CommandEvent{Now: now, Cmd: cmd, Bank: bank, Row: row})
	return done
}

// RefreshDue reports whether a REF is due at time now.
func (c *Channel) RefreshDue(now Tick) bool { return now >= c.nextRefreshDue }

// NextRefreshDue returns the tick at which the next REF becomes due (the
// refresh horizon of an otherwise idle channel).
func (c *Channel) NextRefreshDue() Tick { return c.nextRefreshDue }

// CanRefresh reports whether all banks are idle so REF can start at now.
func (c *Channel) CanRefresh(now Tick) bool {
	for _, b := range c.banks {
		b.Tick(now)
		if !b.CanRefresh(now) {
			return false
		}
	}
	return true
}

// Refresh issues an all-bank REF at now. Open rows must have been closed by
// the controller beforehand.
func (c *Channel) Refresh(now Tick) {
	if !c.CanRefresh(now) {
		panic("dram: REF with non-idle banks")
	}
	for _, b := range c.banks {
		b.Refresh(now, c.cfg.Timings.TRFC)
	}
	c.refreshes++
	c.nextRefreshDue += c.cfg.Timings.TREFI
	c.notify(CommandEvent{Now: now, Cmd: CmdREF})
}

// RFM issues a Refresh Management command to bank at now: the bank is busy
// for tRFM and the in-DRAM tracker (an observer) gets its mitigation
// opportunity. The RAA counter resets.
func (c *Channel) RFM(now Tick, bank int) {
	b := c.banks[bank]
	b.Tick(now)
	if !b.CanRefresh(now) {
		panic("dram: RFM on non-idle bank")
	}
	b.Refresh(now, c.cfg.Timings.TRFM)
	c.actsSinceRFM[bank] = 0
	c.rfms++
	c.notify(CommandEvent{Now: now, Cmd: CmdRFM, Bank: bank})
}
