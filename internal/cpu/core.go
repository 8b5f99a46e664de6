// Package cpu implements the trace-driven out-of-order core model of the
// performance simulator: a 6-wide, 352-entry-ROB core (Table II) that
// fetches instructions from a synthetic trace, issues memory operations to
// the cache hierarchy as soon as they are fetched (bounded by per-core
// MSHRs), and retires in order. Memory-level parallelism emerges from the
// ROB window: while the oldest load is outstanding, younger loads within
// the window issue and overlap their latencies.
//
// This is the substrate equivalent of ChampSim for the paper's purposes:
// the evaluation needs relative IPC sensitivity to memory latency and
// row-buffer hit rate, which the ROB-occupancy model captures (DESIGN.md
// §1).
package cpu

import (
	"fmt"
	"math"

	"impress/internal/trace"
)

// Config sizes a core (Table II defaults via DefaultConfig).
type Config struct {
	Width   int // fetch/retire width per cycle
	ROBSize int // reorder-buffer entries
	MSHRs   int // outstanding misses per core

	// NoFastPath disables the hint-cached stepping fast path so every
	// Step runs the full fetch/retire machinery. The fast path is
	// bit-identical by construction; this flag exists for the
	// cycle-accurate reference mode that the event-driven clock is
	// checked against (sim.ClockCycleAccurate).
	NoFastPath bool
}

// DefaultConfig returns the paper's 6-wide, 352-entry ROB core with 16
// MSHRs.
func DefaultConfig() Config {
	return Config{Width: 6, ROBSize: 352, MSHRs: 16}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Width <= 0 || c.ROBSize <= 0 || c.MSHRs <= 0 {
		return fmt.Errorf("cpu: non-positive parameter: %+v", c)
	}
	return nil
}

// MemOp is an in-flight memory operation tracked by the core's ROB.
type MemOp struct {
	// Pos is the operation's position in the instruction stream.
	Pos int64
	// Addr is the physical address.
	Addr uint64
	// Write marks stores (which retire without waiting for data).
	Write bool
	// Uncached marks accesses that must bypass the LLC (attacker
	// flush+access traffic); carried verbatim from trace.Request.
	Uncached bool
	// Done is set by the memory system when data returns.
	Done bool

	core *Core
}

// Complete marks the operation finished; the memory system calls it.
func (op *MemOp) Complete() {
	if op.Done {
		return
	}
	op.Done = true
	if !op.Write {
		op.core.outstanding--
	}
	// A completion can end a stall or let retirement pass this op: any
	// cached stepping regime is now suspect.
	op.core.invalidateHint()
}

// MemorySystem accepts memory operations from cores.
type MemorySystem interface {
	// CanAccept reports whether a new operation for addr can be taken
	// this cycle. uncached marks LLC-bypassing operations, whose
	// acceptance may not rely on cache residency.
	CanAccept(addr uint64, write, uncached bool) bool
	// Access submits the operation; the memory system must eventually
	// call op.Complete (immediately for hits is fine).
	Access(op *MemOp)
	// Version is a counter that changes whenever memory-system state that
	// could flip a refused CanAccept for addr to an acceptance changes.
	// Cores cache "CanAccept == false" stall decisions and re-evaluate
	// only when the version of the refused address moves; a memory system
	// that cannot track this precisely may return a fresh value on every
	// call to force re-evaluation each cycle.
	Version(addr uint64) uint64
}

// Core is one trace-driven core.
type Core struct {
	id  int
	cfg Config
	gen trace.Generator
	mem MemorySystem

	fetched int64 // instructions fetched
	retired int64 // instructions retired

	// nextMem is the next memory request peeked from the trace and its
	// absolute instruction position.
	nextMem    trace.Request
	nextMemPos int64
	havePeek   bool

	// drawn counts generator Next() calls, so a checkpoint restore can
	// fast-forward a freshly built generator to the same stream position
	// (generators may consume a variable number of RNG draws per request,
	// so the call count — not the instruction count — is the replayable
	// coordinate).
	drawn int64

	// rob holds in-flight memory ops in program order, as a ring of
	// ROBSize slots starting at robHead; plain instructions are implicit
	// between their positions. Ops live in the ring itself: an op never
	// outlives its ROB slot (the memory system references only ops that
	// are still in flight, and an op leaves the ROB only once Done and
	// retired), and at most ROBSize ops are in flight, so fetching one
	// allocates nothing.
	rob     []MemOp
	robHead int
	robLen  int

	outstanding int // reads in flight (MSHR accounting)

	cycles       int64
	finishedAt   int64 // cycle when the instruction budget was reached (-1 if running)
	instrBudget  int64
	statsRetired int64 // retired count at the last ResetStats
	statsCycle   int64

	// Hint-cached stepping fast path (see SkipHint): while hintLeft > 0
	// and the hint is not invalidated, Step applies the regime's
	// per-cycle update arithmetically instead of running fetch/retire.
	hint     SkipHint
	hintLeft int64
	// hintAt is the cycle the hint was last computed at (-1 after an
	// invalidation), so a not-viable verdict is not recomputed twice in
	// the same cycle.
	hintAt int64
	// hintVer is the memory-system version the hint's CanAccept-blocked
	// verdict was taken at (only meaningful when hint.memBlocked).
	hintVer uint64
}

// New builds a core reading from gen and issuing into mem.
func New(id int, cfg Config, gen trace.Generator, mem MemorySystem) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Core{id: id, cfg: cfg, gen: gen, mem: mem, finishedAt: -1, hintAt: -1, rob: make([]MemOp, cfg.ROBSize)}
	c.peek()
	return c
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// SetBudget sets the retired-instruction budget after which the core
// reports finished (it keeps executing to preserve memory contention, as
// rate-mode methodology requires).
func (c *Core) SetBudget(instructions int64) {
	c.instrBudget = c.retired + instructions
	c.finishedAt = -1
	c.invalidateHint() // the budget bounds retire fast-forwards
}

// Finished reports whether the budget has been reached.
func (c *Core) Finished() bool { return c.finishedAt >= 0 }

// FinishCycle returns the cycle at which the budget was reached (-1 while
// running).
func (c *Core) FinishCycle() int64 { return c.finishedAt }

// Retired returns total retired instructions.
func (c *Core) Retired() int64 { return c.retired }

// Cycles returns total elapsed core cycles.
func (c *Core) Cycles() int64 { return c.cycles }

// ResetStats starts a new measurement interval (end of warmup).
func (c *Core) ResetStats() {
	c.statsRetired = c.retired
	c.statsCycle = c.cycles
}

// IPC returns instructions per cycle over the current measurement
// interval, up to the finish cycle if the budget was reached.
func (c *Core) IPC() float64 {
	endCycle := c.cycles
	endRetired := c.retired
	if c.finishedAt >= 0 {
		endCycle = c.finishedAt
		endRetired = c.instrBudget
	}
	cyc := endCycle - c.statsCycle
	if cyc <= 0 {
		return 0
	}
	return float64(endRetired-c.statsRetired) / float64(cyc)
}

func (c *Core) peek() {
	req := c.gen.Next()
	c.drawn++
	c.nextMemPos = c.fetched + int64(req.Gap)
	// Position relative to the stream: Gap instructions precede the op.
	// If we already fetched past (shouldn't happen), clamp.
	if c.havePeek {
		panic("cpu: double peek")
	}
	c.nextMem = req
	c.havePeek = true
}

// Step advances the core by one cycle. When a cached stepping hint is
// valid (see SkipHint), the cycle's effect is applied arithmetically —
// bit-identical to the full fetch/retire path by the hint's contract —
// and the full machinery runs only at regime boundaries.
//
//impress:hotpath
func (c *Core) Step() {
	if c.hintLeft > 0 && c.hintUsable() {
		c.Skip(1)
		return
	}
	c.hintLeft = 0
	c.fetch()
	c.retire()
	c.cycles++
	if !c.cfg.NoFastPath {
		c.refreshHint()
	}
}

// hintUsable re-validates a cached hint whose stall verdict depends on
// memory-system acceptance: if the memory system's version moved, the
// blocked CanAccept is re-evaluated (at exactly the points a full Step
// would evaluate it).
func (c *Core) hintUsable() bool {
	if !c.hint.memBlocked {
		return true
	}
	v := c.mem.Version(c.nextMem.Addr)
	if v == c.hintVer {
		return true
	}
	if c.mem.CanAccept(c.nextMem.Addr, c.nextMem.Write, c.nextMem.Uncached) {
		return false
	}
	c.hintVer = v
	return true
}

// refreshHint recomputes and caches the stepping hint after a full Step.
func (c *Core) refreshHint() {
	h := c.SkipHint()
	c.hintAt = c.cycles
	if h.Viable && h.Steps > 0 {
		c.hint = h
		c.hintLeft = h.Steps
		if h.memBlocked {
			c.hintVer = c.mem.Version(c.nextMem.Addr)
		}
	} else {
		c.hintLeft = 0
	}
}

// robPush claims the ROB slot after the youngest op; the caller fills it.
func (c *Core) robPush() *MemOp {
	i := c.robHead + c.robLen
	if i >= len(c.rob) {
		i -= len(c.rob)
	}
	c.robLen++
	return &c.rob[i]
}

// robPop retires the ROB head.
func (c *Core) robPop() {
	if c.robHead++; c.robHead == len(c.rob) {
		c.robHead = 0
	}
	c.robLen--
}

// Stalled reports whether the core's cached stepping regime is the fully
// stalled one (SkipHint Steps == math.MaxInt64): until something outside
// the core changes, each Step only advances its clock. Only a completion
// of one of its operations can end that regime, or — when refused is
// true — the memory system accepting addr, the next operation it refused
// (see MemorySystem.Version). A caller that stops stepping a stalled core
// must bring its clock up with Skip before either happens.
func (c *Core) Stalled() (stalled, refused bool, addr uint64) {
	if c.hintLeft != math.MaxInt64 {
		return false, false, 0
	}
	return true, c.hint.memBlocked, c.nextMem.Addr
}

// invalidateHint drops the cached stepping regime (on completions and
// budget changes).
func (c *Core) invalidateHint() {
	c.hintLeft = 0
	c.hintAt = -1
}

func (c *Core) fetch() {
	budget := c.cfg.Width
	for budget > 0 {
		if c.fetched-c.retired >= int64(c.cfg.ROBSize) {
			return // ROB full
		}
		if !c.havePeek {
			c.peek()
		}
		if c.fetched < c.nextMemPos {
			// Plain instructions up to the next memory op.
			n := c.nextMemPos - c.fetched
			if n > int64(budget) {
				n = int64(budget)
			}
			room := int64(c.cfg.ROBSize) - (c.fetched - c.retired)
			if n > room {
				n = room
			}
			c.fetched += n
			budget -= int(n)
			continue
		}
		// The next instruction is the memory op.
		if !c.nextMem.Write && c.outstanding >= c.cfg.MSHRs {
			return // MSHRs exhausted: fetch stalls at the load
		}
		if !c.mem.CanAccept(c.nextMem.Addr, c.nextMem.Write, c.nextMem.Uncached) {
			return // memory system backpressure
		}
		op := c.robPush()
		*op = MemOp{
			Pos:      c.fetched,
			Addr:     c.nextMem.Addr,
			Write:    c.nextMem.Write,
			Uncached: c.nextMem.Uncached,
			core:     c,
		}
		if op.Write {
			// Stores retire immediately (posted through the write
			// buffer); issue to memory without ROB blocking.
			op.Done = true
		} else {
			c.outstanding++
		}
		c.mem.Access(op)
		c.fetched++
		budget--
		c.havePeek = false
	}
}

func (c *Core) retire() {
	budget := c.cfg.Width
	for budget > 0 {
		// Retire plain instructions up to the oldest memory op.
		limit := c.fetched
		if c.robLen > 0 {
			limit = c.rob[c.robHead].Pos
		}
		if c.retired < limit {
			n := limit - c.retired
			if n > int64(budget) {
				n = int64(budget)
			}
			c.advanceRetired(n)
			budget -= int(n)
			continue
		}
		if c.robLen == 0 {
			return // nothing fetched beyond retirement point
		}
		head := &c.rob[c.robHead]
		if head.Pos == c.retired && head.Done {
			c.robPop()
			c.advanceRetired(1)
			budget--
			continue
		}
		return // head memory op still outstanding
	}
}

// SkipHint describes how the core will evolve over its next Steps, for
// the event-driven clock (sim.run). When Viable, each of the next Steps
// cycles is exactly: fetched += FetchPerStep plain instructions,
// retired += RetirePerStep, cycles++ — no trace-generator draw, no
// memory-system call, no ROB change, no budget crossing. A fully stalled
// core (no fetch or retire progress possible until an in-flight memory
// operation completes or the memory system unblocks) reports
// Steps == math.MaxInt64 with zero rates.
type SkipHint struct {
	Steps         int64
	FetchPerStep  int64
	RetirePerStep int64
	// Viable is false when the core must be stepped normally (it is at a
	// regime boundary: an issueable memory op, a generator draw, a ROB
	// head pop, or a partial-width cycle).
	Viable bool
	// memBlocked marks a hint whose validity rests on the memory system
	// rejecting the next operation (CanAccept == false); it must be
	// re-evaluated when the memory system's Version moves.
	memBlocked bool
}

// SkipHint analyzes the core without side effects; in particular it never
// advances the trace generator. The returned hint is valid until an
// external event (a memory completion or a memory-system state change)
// or the core's own Steps bound, whichever comes first; the caller must
// re-query after either.
func (c *Core) SkipHint() SkipHint {
	w := int64(c.cfg.Width)
	backlog := c.fetched - c.retired
	room := int64(c.cfg.ROBSize) - backlog

	// Fetch-stage regime: full-width plain fetch, hard-blocked, or a
	// boundary cycle (mirrors fetch()'s checks in order).
	fetchBlocked, fetchPure, memBlocked := false, false, false
	switch {
	case room <= 0:
		fetchBlocked = true // clears via retirement, handled below
	case !c.havePeek:
		// Next cycle draws from the generator: step normally.
	case c.fetched < c.nextMemPos:
		fetchPure = true
	case !c.nextMem.Write && c.outstanding >= c.cfg.MSHRs:
		fetchBlocked = true
	case !c.mem.CanAccept(c.nextMem.Addr, c.nextMem.Write, c.nextMem.Uncached):
		fetchBlocked = true
		memBlocked = true
	}

	// Retire-stage regime. With a ROB head, plain retirement runs at full
	// width until it reaches the head; popping the head is a boundary.
	// With an empty ROB, retirement follows fetch within the same cycle
	// (the retire limit is the post-fetch fetch point), so a pure-fetch
	// core also retires at full width; only a fetch-blocked empty-ROB
	// core is bounded by its current backlog.
	headStalled := false
	retireHeadroom := int64(math.MaxInt64)
	if c.robLen > 0 {
		head := &c.rob[c.robHead]
		if c.retired == head.Pos {
			if head.Done {
				return SkipHint{} // pops the head: step normally
			}
			headStalled = true
		} else {
			retireHeadroom = head.Pos - c.retired
		}
	} else {
		retireHeadroom = backlog
	}

	if fetchBlocked {
		switch {
		case headStalled || retireHeadroom == 0:
			// No fetch or retire progress until a completion or the
			// memory system unblocks: a pure clock advance.
			return SkipHint{Steps: math.MaxInt64, Viable: true, memBlocked: memBlocked}
		case room <= 0:
			// ROB-full with retirement draining: fetch unblocks within a
			// cycle; not a stable regime.
			return SkipHint{}
		default:
			// Drain: retire full-width toward the ROB head (or fetch
			// point) while fetch waits on the memory system.
			k := c.capRetireSteps(retireHeadroom/w, w)
			return SkipHint{Steps: k, RetirePerStep: w, Viable: k > 0, memBlocked: memBlocked}
		}
	}
	if !fetchPure {
		return SkipHint{} // issueable memory op or generator draw
	}
	k := (c.nextMemPos - c.fetched) / w
	if headStalled {
		// Fill: fetch ahead of a stalled head until the ROB fills.
		if kr := room / w; kr < k {
			k = kr
		}
		return SkipHint{Steps: k, FetchPerStep: w, Viable: k > 0}
	}
	// Stream: fetch and retire at full width.
	if room < w {
		return SkipHint{}
	}
	if c.robLen > 0 && retireHeadroom/w < k {
		k = retireHeadroom / w
	}
	k = c.capRetireSteps(k, w)
	return SkipHint{Steps: k, FetchPerStep: w, RetirePerStep: w, Viable: k > 0}
}

// capRetireSteps bounds a full-width retirement fast-forward so it stops
// strictly before the instruction budget is reached; the crossing cycle
// (which records finishedAt) always executes normally.
func (c *Core) capRetireSteps(k, w int64) int64 {
	if c.instrBudget > 0 && c.retired < c.instrBudget {
		toBudget := (c.instrBudget - c.retired + w - 1) / w
		if toBudget-1 < k {
			k = toBudget - 1
		}
	}
	if k < 0 {
		return 0
	}
	return k
}

// CurrentHint returns the cached stepping hint (with Steps reduced to
// the cycles remaining under it), recomputing it when absent or
// invalidated. A non-viable zero hint means the core must step normally.
func (c *Core) CurrentHint() SkipHint {
	if c.hintLeft > 0 {
		if c.hintUsable() {
			h := c.hint
			h.Steps = c.hintLeft
			return h
		}
		c.hintLeft = 0
		c.hintAt = -1
	}
	if c.hintAt != c.cycles {
		c.refreshHint()
		if c.hintLeft > 0 {
			h := c.hint
			h.Steps = c.hintLeft
			return h
		}
	}
	return SkipHint{}
}

// Skip fast-forwards the core by steps cycles under the currently cached
// hint (the one CurrentHint returned), applying the per-cycle update
// wholesale. steps must not exceed the hint's remaining bound.
func (c *Core) Skip(steps int64) {
	c.cycles += steps
	c.fetched += steps * c.hint.FetchPerStep
	c.retired += steps * c.hint.RetirePerStep
	if c.hintLeft != math.MaxInt64 {
		c.hintLeft -= steps
	}
}

// Core returns the core that issued this operation (for the event-driven
// clock's completion routing).
func (op *MemOp) Core() *Core { return op.core }

// WakesOnCompletion reports whether completing one of this core's memory
// operations could change its current (cached) stepping regime, so an
// idle-skip window must end before the completion instead of absorbing
// it. Any regime with retirement parked at the ROB head (fill, stalled)
// wakes — the completion may mark that head Done and restart retirement
// mid-window — and so does a retire-drain held up by full MSHRs (the
// completion frees one). The safe absorbers are the regimes that provably
// never consult a completion before their boundary: stream (it stops
// strictly before reaching the head) and a CanAccept-blocked drain
// (which stays blocked no matter how many of its operations complete).
func (c *Core) WakesOnCompletion() bool {
	return c.hint.RetirePerStep == 0 ||
		(c.hint.FetchPerStep == 0 && !c.hint.memBlocked)
}

func (c *Core) advanceRetired(n int64) {
	c.retired += n
	if c.finishedAt < 0 && c.instrBudget > 0 && c.retired >= c.instrBudget {
		// The budget completes at the end of the current cycle (cycles is
		// incremented after retire within Step).
		c.finishedAt = c.cycles + 1
	}
}
