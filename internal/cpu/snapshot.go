package cpu

import (
	"fmt"

	"impress/internal/errs"
)

// OpSnapshot is one in-flight ROB memory operation in a core snapshot.
// The core pointer is rebound on restore; waiters elsewhere in the
// memory hierarchy reference ops by (core, ROB index), which Restore
// preserves because the ROB is rebuilt in order.
type OpSnapshot struct {
	Pos      int64  `json:"pos"`
	Addr     uint64 `json:"addr"`
	Write    bool   `json:"write,omitempty"`
	Uncached bool   `json:"uncached,omitempty"`
	Done     bool   `json:"done,omitempty"`
}

// Snapshot is a serializable image of a core's mutable state at a warmup
// checkpoint. The cached stepping hint is deliberately absent: it is a
// derived acceleration structure, and both the restore path and the
// straight-through path invalidate it at the warmup boundary (SetBudget),
// so dropping it cannot perturb the simulated outcome.
type Snapshot struct {
	Fetched int64 `json:"fetched"`
	Retired int64 `json:"retired"`

	// The peeked next request and its absolute position. NextMemPos is
	// serialized verbatim rather than rederived: it was computed from the
	// fetch point at peek time, which has since moved on.
	NextAddr     uint64 `json:"nextAddr"`
	NextWrite    bool   `json:"nextWrite,omitempty"`
	NextUncached bool   `json:"nextUncached,omitempty"`
	NextGap      int    `json:"nextGap,omitempty"`
	NextMemPos   int64  `json:"nextMemPos"`
	HavePeek     bool   `json:"havePeek,omitempty"`
	Drawn        int64  `json:"drawn"`

	Outstanding  int   `json:"outstanding,omitempty"`
	Cycles       int64 `json:"cycles"`
	FinishedAt   int64 `json:"finishedAt"`
	InstrBudget  int64 `json:"instrBudget"`
	StatsRetired int64 `json:"statsRetired"`
	StatsCycle   int64 `json:"statsCycle"`

	ROB []OpSnapshot `json:"rob"`
}

// Snapshot captures the core's mutable state for a warmup checkpoint.
func (c *Core) Snapshot() Snapshot {
	s := Snapshot{
		Fetched:      c.fetched,
		Retired:      c.retired,
		NextAddr:     c.nextMem.Addr,
		NextWrite:    c.nextMem.Write,
		NextUncached: c.nextMem.Uncached,
		NextGap:      c.nextMem.Gap,
		NextMemPos:   c.nextMemPos,
		HavePeek:     c.havePeek,
		Drawn:        c.drawn,
		Outstanding:  c.outstanding,
		Cycles:       c.cycles,
		FinishedAt:   c.finishedAt,
		InstrBudget:  c.instrBudget,
		StatsRetired: c.statsRetired,
		StatsCycle:   c.statsCycle,
		ROB:          make([]OpSnapshot, c.robLen),
	}
	for i := range s.ROB {
		op := c.ROBOp(i)
		s.ROB[i] = OpSnapshot{Pos: op.Pos, Addr: op.Addr, Write: op.Write, Uncached: op.Uncached, Done: op.Done}
	}
	return s
}

// Restore overwrites the core's mutable state with a snapshot. The core
// must be freshly constructed with the same config and the same
// generator parameters that produced the snapshot: Restore fast-forwards
// the new generator to the snapshot's draw position by replaying Next()
// calls, which reproduces the original stream exactly because every
// generator in the repository is deterministic in its seed.
func (c *Core) Restore(s Snapshot) error {
	if s.Drawn < 1 {
		return fmt.Errorf("cpu: %w: checkpoint draw count %d (a constructed core has drawn at least once)",
			errs.ErrBadSpec, s.Drawn)
	}
	if s.Outstanding < 0 || s.Fetched < s.Retired || s.Retired < 0 {
		return fmt.Errorf("cpu: %w: inconsistent core progress (fetched %d, retired %d, outstanding %d)",
			errs.ErrBadSpec, s.Fetched, s.Retired, s.Outstanding)
	}
	if len(s.ROB) > c.cfg.ROBSize {
		return fmt.Errorf("cpu: %w: checkpoint ROB holds %d ops, capacity %d",
			errs.ErrBadSpec, len(s.ROB), c.cfg.ROBSize)
	}
	// New() already performed the first draw; replay the rest.
	for i := int64(1); i < s.Drawn; i++ {
		c.gen.Next()
	}
	c.drawn = s.Drawn
	c.fetched = s.Fetched
	c.retired = s.Retired
	c.nextMem.Addr = s.NextAddr
	c.nextMem.Write = s.NextWrite
	c.nextMem.Uncached = s.NextUncached
	c.nextMem.Gap = s.NextGap
	c.nextMemPos = s.NextMemPos
	c.havePeek = s.HavePeek
	c.outstanding = s.Outstanding
	c.cycles = s.Cycles
	c.finishedAt = s.FinishedAt
	c.instrBudget = s.InstrBudget
	c.statsRetired = s.StatsRetired
	c.statsCycle = s.StatsCycle
	c.robHead, c.robLen = 0, 0
	for _, op := range s.ROB {
		*c.robPush() = MemOp{
			Pos:      op.Pos,
			Addr:     op.Addr,
			Write:    op.Write,
			Uncached: op.Uncached,
			Done:     op.Done,
			core:     c,
		}
	}
	c.invalidateHint()
	return nil
}

// ROBLen returns the number of in-flight ROB ops (checkpoint relinking).
func (c *Core) ROBLen() int { return c.robLen }

// ROBOp returns the i-th oldest in-flight ROB op (checkpoint relinking:
// memory-system waiters are encoded as (core, ROB index) pairs, valid
// because an op stays in its core's ROB until it is both Done and
// retired, which covers every op the memory system still references).
func (c *Core) ROBOp(i int) *MemOp {
	if i += c.robHead; i >= len(c.rob) {
		i -= len(c.rob)
	}
	return &c.rob[i]
}
