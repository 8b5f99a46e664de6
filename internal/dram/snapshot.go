package dram

import (
	"fmt"

	"impress/internal/errs"
)

// BankSnapshot is a serializable snapshot of one bank's timing state.
type BankSnapshot struct {
	State      BankState `json:"state"`
	OpenRow    int64     `json:"openRow,omitempty"`
	RowValid   bool      `json:"rowValid,omitempty"`
	LastACT    Tick      `json:"lastACT"`
	ReadyAt    Tick      `json:"readyAt"`
	OpenSince  Tick      `json:"openSince,omitempty"`
	LastColumn Tick      `json:"lastColumn,omitempty"`
	Acts       uint64    `json:"acts,omitempty"`
}

// ChannelSnapshot is a serializable snapshot of a channel's refresh
// bookkeeping, rate-limiter rings and counters, plus all of its banks.
type ChannelSnapshot struct {
	NextRefreshDue Tick           `json:"nextRefreshDue"`
	ActsSinceRFM   []int          `json:"actsSinceRFM"`
	ActRing        [2][4]Tick     `json:"actRing"`
	ActRingPos     [2]int         `json:"actRingPos"`
	LastSubACT     [2]Tick        `json:"lastSubACT"`
	DemandACTs     uint64         `json:"demandACTs,omitempty"`
	MitigativeACTs uint64         `json:"mitigativeACTs,omitempty"`
	Refreshes      uint64         `json:"refreshes,omitempty"`
	RFMs           uint64         `json:"rfms,omitempty"`
	Banks          []BankSnapshot `json:"banks"`
}

// Snapshot captures the bank's mutable state for a warmup checkpoint.
func (b *Bank) Snapshot() BankSnapshot {
	return BankSnapshot{
		State:      b.state,
		OpenRow:    b.openRow,
		RowValid:   b.rowValid,
		LastACT:    b.lastACT,
		ReadyAt:    b.readyAt,
		OpenSince:  b.openSince,
		LastColumn: b.lastColumn,
		Acts:       b.acts,
	}
}

// Restore overwrites the bank's mutable state with a snapshot.
func (b *Bank) Restore(s BankSnapshot) error {
	if s.State < BankIdle || s.State > BankRefreshing {
		return fmt.Errorf("dram: %w: bank state %d out of range", errs.ErrBadSpec, s.State)
	}
	b.state = s.State
	b.openRow = s.OpenRow
	b.rowValid = s.RowValid
	b.lastACT = s.LastACT
	b.readyAt = s.ReadyAt
	b.openSince = s.OpenSince
	b.lastColumn = s.LastColumn
	b.acts = s.Acts
	return nil
}

// Snapshot captures the channel's mutable state for a warmup checkpoint.
func (c *Channel) Snapshot() ChannelSnapshot {
	s := ChannelSnapshot{
		NextRefreshDue: c.nextRefreshDue,
		ActsSinceRFM:   append([]int(nil), c.actsSinceRFM...),
		ActRing:        c.actRing,
		ActRingPos:     c.actRingPos,
		LastSubACT:     c.lastSubACT,
		DemandACTs:     c.demandACTs,
		MitigativeACTs: c.mitigativeACTs,
		Refreshes:      c.refreshes,
		RFMs:           c.rfms,
		Banks:          make([]BankSnapshot, len(c.banks)),
	}
	for i, b := range c.banks {
		s.Banks[i] = b.Snapshot()
	}
	return s
}

// Restore overwrites the channel's mutable state with a snapshot. The
// channel must have been constructed with the same geometry (bank count)
// that produced the snapshot.
func (c *Channel) Restore(s ChannelSnapshot) error {
	if len(s.Banks) != len(c.banks) {
		return fmt.Errorf("dram: %w: checkpoint has %d banks, channel has %d",
			errs.ErrBadSpec, len(s.Banks), len(c.banks))
	}
	if len(s.ActsSinceRFM) != len(c.actsSinceRFM) {
		return fmt.Errorf("dram: %w: checkpoint has %d RFM counters, channel has %d",
			errs.ErrBadSpec, len(s.ActsSinceRFM), len(c.actsSinceRFM))
	}
	for i, pos := range s.ActRingPos {
		if pos < 0 || pos >= len(s.ActRing[i]) {
			return fmt.Errorf("dram: %w: tFAW ring position %d out of range", errs.ErrBadSpec, pos)
		}
	}
	for i, b := range c.banks {
		if err := b.Restore(s.Banks[i]); err != nil {
			return err
		}
	}
	c.nextRefreshDue = s.NextRefreshDue
	copy(c.actsSinceRFM, s.ActsSinceRFM)
	c.actRing = s.ActRing
	c.actRingPos = s.ActRingPos
	c.lastSubACT = s.LastSubACT
	c.demandACTs = s.DemandACTs
	c.mitigativeACTs = s.MitigativeACTs
	c.refreshes = s.Refreshes
	c.rfms = s.RFMs
	return nil
}
