package dram

import "fmt"

// BankState enumerates the coarse state of a DRAM bank.
type BankState int

const (
	// BankIdle means all rows are closed and the bank can accept ACT.
	BankIdle BankState = iota
	// BankActive means a row is open (possibly still within tRCD).
	BankActive
	// BankRefreshing means the bank is executing REF or RFM.
	BankRefreshing
)

// String implements fmt.Stringer.
func (s BankState) String() string {
	switch s {
	case BankIdle:
		return "idle"
	case BankActive:
		return "active"
	case BankRefreshing:
		return "refreshing"
	default:
		return fmt.Sprintf("BankState(%d)", int(s))
	}
}

// Bank is a single DRAM bank's timing state machine. It enforces the
// ACT/PRE/RD/WR/REF legality rules from the Timings set and tracks the
// row-open interval that Row-Press mitigation depends on.
//
// Bank performs no scheduling itself: the memory controller (or an attack
// driver) asks CanActivate/CanRead/... and then calls the corresponding
// mutator. Illegal calls panic, because they indicate a controller bug, not
// a runtime condition.
type Bank struct {
	t Timings

	state    BankState
	openRow  int64 // valid when state == BankActive
	rowValid bool

	lastACT    Tick // time of the most recent ACT
	readyAt    Tick // bank usable again (after PRE/REF completes)
	openSince  Tick // when the current row was opened (== lastACT)
	lastColumn Tick // time of most recent RD/WR start

	acts uint64 // lifetime activation count (stats)
}

// NewBank returns an idle bank with the given timings.
func NewBank(t Timings) *Bank {
	return &Bank{t: t, readyAt: 0, lastACT: -t.TRC}
}

// OpenRow returns the open row and true, or 0 and false when no row is open.
func (b *Bank) OpenRow() (int64, bool) {
	if b.state == BankActive && b.rowValid {
		return b.openRow, true
	}
	return 0, false
}

// CanActivate reports whether ACT is legal at time now.
func (b *Bank) CanActivate(now Tick) bool {
	return b.state == BankIdle && now >= b.readyAt && now >= b.lastACT+b.t.TRC
}

// Activate opens row at time now.
func (b *Bank) Activate(now Tick, row int64) {
	if !b.CanActivate(now) {
		panic(fmt.Sprintf("dram: illegal ACT at %d (state=%v readyAt=%d lastACT=%d)",
			now, b.state, b.readyAt, b.lastACT))
	}
	b.state = BankActive
	b.openRow = row
	b.rowValid = true
	b.lastACT = now
	b.openSince = now
	b.acts++
}

// CanPrecharge reports whether PRE is legal at time now (tRAS satisfied).
func (b *Bank) CanPrecharge(now Tick) bool {
	return b.state == BankActive && now >= b.openSince+b.t.TRAS
}

// Precharge closes the open row at time now and returns how long the row
// was open (tON). The bank becomes usable again at now+tPRE.
func (b *Bank) Precharge(now Tick) Tick {
	if !b.CanPrecharge(now) {
		panic(fmt.Sprintf("dram: illegal PRE at %d (state=%v openSince=%d)",
			now, b.state, b.openSince))
	}
	tON := now - b.openSince
	b.state = BankIdle
	b.rowValid = false
	b.readyAt = now + b.t.TPRE
	return tON
}

// EarliestPrecharge returns the earliest tick at which the open row may be
// precharged (openSince+tRAS); only meaningful when a row is open.
func (b *Bank) EarliestPrecharge() Tick { return b.openSince + b.t.TRAS }

// CanColumn reports whether a RD/WR to the open row is legal at time now:
// a row must be open, tRCD satisfied.
func (b *Bank) CanColumn(now Tick, row int64) bool {
	return b.state == BankActive && b.rowValid && b.openRow == row &&
		now >= b.openSince+b.t.TACT
}

// Column performs a RD or WR at time now and returns the tick at which the
// data transfer completes (now + tCAS + tBurst).
func (b *Bank) Column(now Tick, row int64) Tick {
	if !b.CanColumn(now, row) {
		panic(fmt.Sprintf("dram: illegal column command at %d row %d (state=%v)",
			now, row, b.state))
	}
	b.lastColumn = now
	return now + b.t.TCAS + b.t.TBurst
}

// EarliestColumn returns the earliest tick at which a column command to
// the open row becomes legal (openSince+tRCD); only meaningful when a row
// is open.
func (b *Bank) EarliestColumn() Tick { return b.openSince + b.t.TACT }

// EarliestActivate returns the earliest tick at which ACT could become
// legal absent further commands: the end of the current PRE/REF recovery
// and the tRC spacing from the previous ACT. A bank with an open row
// returns TickMax — it must be precharged first, and the precharge will
// reschedule the horizon.
func (b *Bank) EarliestActivate() Tick {
	if b.state == BankActive {
		return TickMax
	}
	e := b.readyAt
	if t := b.lastACT + b.t.TRC; t > e {
		e = t
	}
	return e
}

// CanRefresh reports whether REF/RFM can start at time now (bank idle).
func (b *Bank) CanRefresh(now Tick) bool {
	return b.state == BankIdle && now >= b.readyAt
}

// Refresh blocks the bank for duration (tRFC for REF, tRFM for RFM).
func (b *Bank) Refresh(now Tick, duration Tick) {
	if !b.CanRefresh(now) {
		panic(fmt.Sprintf("dram: illegal REF at %d (state=%v readyAt=%d)",
			now, b.state, b.readyAt))
	}
	b.state = BankRefreshing
	b.readyAt = now + duration
}

// Tick advances the bank's passive state: a refreshing bank returns to idle
// once its busy period elapses. Callers should invoke it (cheaply) before
// querying CanActivate et al.; it is idempotent.
func (b *Bank) Tick(now Tick) {
	if b.state == BankRefreshing && now >= b.readyAt {
		b.state = BankIdle
	}
}

// ReadyAt returns the earliest tick at which the bank leaves its current
// blocking operation (PRE or REF). For an active bank it returns the
// current time semantics of "ready now".
func (b *Bank) ReadyAt() Tick { return b.readyAt }
