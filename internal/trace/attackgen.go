package trace

import (
	"impress/internal/attack"
	"impress/internal/dram"
	"impress/internal/memctrl"
)

// This file adapts the adversarial DRAM patterns of internal/attack into
// Generator request streams, so attacker/victim co-runs flow through the
// full performance simulator: an aggressor core in a Mix emits the
// pattern's row sequence as uncached reads aimed at its own bank, paced
// by the pattern's own activation timing. The adapter is open-loop — the
// pattern's virtual clock advances at the attack's ideal cadence and the
// memory controller decides the actual row-open times — which is exactly
// the fidelity a co-run performance study needs: attack-shaped demand
// traffic contending for queues, banks and tracker mitigations.

// attackRowBase places aggressor rows far above every synthetic
// workload's range: rate-mode cores own 512 MB each (rows < 4096 under
// the default MOP-8 mapping), while row 1<<17 starts at 128 GB.
const attackRowBase = 1 << 17

// attackRowsPerCore spaces the per-core aggressor row ranges.
const attackRowsPerCore = 1 << 12

// newAttackPattern builds the pattern named by a spec with the paper's
// DDR5 timings — a paper pattern name or a "synth:<genome>" canonical
// genome, both resolved by attack.BySpec. Rows are pattern-local; the
// adapter offsets them into the core's private range (synthesized
// genomes confine themselves to [0, attackRowsPerCore) by
// construction).
func newAttackPattern(name string, t dram.Timings) (attack.Pattern, error) {
	return attack.BySpec(name, t)
}

// NewAttackWorkload returns the workload "attack:<pattern>": every core
// runs the named adversarial pattern against its own channel/bank, so it
// can stand alone (8 aggressors) or donate single cores to a Mix.
// Patterns are deterministic, so recording and replaying an attack
// workload is exact.
func NewAttackWorkload(pattern string) (Workload, error) {
	if _, err := newAttackPattern(pattern, dram.DDR5()); err != nil {
		return Workload{}, err
	}
	return Workload{
		Name: "attack:" + pattern,
		NewGenerator: func(coreID int, _ uint64) Generator {
			t := dram.DDR5()
			p, err := newAttackPattern(pattern, t)
			if err != nil {
				panic(err) // validated above
			}
			m := memctrl.DefaultMapper()
			return &attackGen{
				name:    "attack:" + pattern,
				p:       p,
				m:       m,
				t:       t,
				channel: coreID % m.Channels,
				bank:    coreID % m.BanksPerChannel,
				rowBase: attackRowBase + int64(coreID)*attackRowsPerCore,
			}
		},
	}, nil
}

// attackGen drives one aggressor core from a pull-based attack.Pattern.
type attackGen struct {
	name string
	p    attack.Pattern
	m    memctrl.Mapper
	t    dram.Timings

	channel int
	bank    int
	rowBase int64

	// col rotates so consecutive accesses to one row touch distinct
	// lines and never merge into a single MSHR fetch.
	col int
	// vnow is the attacker's virtual clock: the earliest tick the next
	// ACT could legally issue at if the attacker owned the bank.
	vnow dram.Tick
	// prevAct is the previous access's ActAt, for gap pacing.
	prevAct dram.Tick
	started bool
}

// Name implements Generator.
func (g *attackGen) Name() string { return g.name }

// Next implements Generator. Each pattern access becomes one uncached
// read of a line in the (offset) aggressor row; the instruction gap
// between consecutive requests mirrors the pattern's ACT-to-ACT spacing
// at the core's clock, so request intensity matches the attack's pacing.
func (g *attackGen) Next() Request {
	acc := g.p.Next(g.vnow)
	row := g.rowBase + acc.Row
	addr := g.m.Unmap(memctrl.Location{
		Channel: g.channel, Bank: g.bank, Row: row, Col: g.col,
	})
	g.col = (g.col + 1) % g.m.LinesPerRow

	gap := 0
	if g.started {
		if cycles := (acc.ActAt - g.prevAct).CPUCycles(); cycles > 1 {
			gap = int(cycles - 1)
		}
	}
	g.started = true
	g.prevAct = acc.ActAt

	// Advance the virtual clock past this access: the row stays open for
	// TON, precharges, and tRC lower-bounds the ACT-to-ACT distance.
	tON := acc.TON
	if tON < g.t.TRAS {
		tON = g.t.TRAS
	}
	next := acc.ActAt + tON + g.t.TPRE
	if byTRC := acc.ActAt + g.t.TRC; byTRC > next {
		next = byTRC
	}
	g.vnow = next

	return Request{Addr: addr, Gap: gap, Uncached: true}
}
