package attack

import (
	"fmt"
	"strconv"
	"strings"

	"impress/internal/dram"
	"impress/internal/errs"
)

// The synthesis genome: a compact, canonical, versioned parameterization
// of an adversarial access loop. A genome names a set of aggressor rows,
// a rotating decoy population, and a repeating schedule of slots, each
// slot choosing a target (one aggressor or the next decoy), a row-open
// hold, an idle gap and an optional tRC-boundary alignment (the Fig. 10
// decoy trick). The space strictly contains every hand-written paper
// pattern — pure hammering, long holds, decoy floods, many-sided sweeps
// and arbitrary interleavings — which is what lets the evolutionary
// search in internal/synth discover traces the paper's five never reach.
//
// Genomes render in two ways from the same definition: NewProgram builds
// an attack.Pattern for the security harness, and the "synth:<genome>"
// workload spec (internal/trace) renders the identical schedule through
// the v2 trace encoder for full-simulator co-runs. The canonical string
// is the identity: it keys result-store entries, archive file names and
// the determinism contract (parse ∘ print is the identity function).

// GenomeVersion is the canonical-encoding version tag. Parsers reject
// other versions; bump it only with a migration note in DESIGN.md §13.
const GenomeVersion = "v1"

// Genome bounds. They keep every renderable row inside the per-core row
// range the trace adapter owns (attackRowsPerCore in internal/trace) and
// the schedule small enough to stay a "compact parameterization".
const (
	MaxAggressors  = 16
	MaxSpacing     = 8
	MaxDecoySpread = 2048
	MaxSlots       = 64
	// MaxTONTrc matches the DDR5 tONMax (5 tREFI ≈ 406 tRC): holds
	// beyond it are force-closed by every design anyway.
	MaxTONTrc = 406
	MaxGapTrc = 128
)

// genomeDecoyBase places decoy rows far from every aggressor row (the
// aggressors live at small offsets) while keeping base+spread under the
// trace adapter's per-core row range (4096 rows).
const genomeDecoyBase = 2048

// Slot is one step of a genome's repeating access schedule.
type Slot struct {
	// Agg indexes the aggressor row set; negative means "the next decoy
	// row" (rotating over the genome's DecoySpread).
	Agg int
	// TONTrc is the extra row-open hold in tRC units: TON = tRAS + TONTrc*tRC.
	TONTrc int
	// GapTrc is an idle gap inserted before the ACT, in tRC units.
	GapTrc int
	// Align snaps the ACT to land within tPRE of the next tRC window
	// boundary (the ImPress-N decoy alignment trick).
	Align bool
}

// Genome is a complete synthesized-attack definition.
type Genome struct {
	// Aggressors is the number of aggressor rows.
	Aggressors int
	// Spacing is the row distance between consecutive aggressors
	// (spacing ≤ 2·BlastRadius makes neighbors share victims).
	Spacing int
	// DecoySpread is how many distinct decoy rows the decoy slots rotate
	// over.
	DecoySpread int
	// Slots is the repeating access schedule.
	Slots []Slot
}

// Validate reports whether the genome is inside the renderable bounds,
// returning a typed error wrapping errs.ErrBadSpec otherwise.
func (g Genome) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("attack: %w: genome: %s", errs.ErrBadSpec, fmt.Sprintf(format, args...))
	}
	if g.Aggressors < 1 || g.Aggressors > MaxAggressors {
		return bad("aggressors %d outside [1,%d]", g.Aggressors, MaxAggressors)
	}
	if g.Spacing < 1 || g.Spacing > MaxSpacing {
		return bad("spacing %d outside [1,%d]", g.Spacing, MaxSpacing)
	}
	if g.DecoySpread < 1 || g.DecoySpread > MaxDecoySpread {
		return bad("decoy spread %d outside [1,%d]", g.DecoySpread, MaxDecoySpread)
	}
	if len(g.Slots) < 1 || len(g.Slots) > MaxSlots {
		return bad("%d slots outside [1,%d]", len(g.Slots), MaxSlots)
	}
	for i, s := range g.Slots {
		switch {
		case s.Agg >= g.Aggressors:
			return bad("slot %d aggressor %d outside [-1,%d)", i, s.Agg, g.Aggressors)
		case s.Agg < -1:
			return bad("slot %d aggressor %d outside [-1,%d)", i, s.Agg, g.Aggressors)
		case s.TONTrc < 0 || s.TONTrc > MaxTONTrc:
			return bad("slot %d tON %d tRC outside [0,%d]", i, s.TONTrc, MaxTONTrc)
		case s.GapTrc < 0 || s.GapTrc > MaxGapTrc:
			return bad("slot %d gap %d tRC outside [0,%d]", i, s.GapTrc, MaxGapTrc)
		}
	}
	return nil
}

// AggressorRow returns the i-th aggressor's (pattern-local) row.
func (g Genome) AggressorRow(i int) int64 {
	return 1 + int64(i)*int64(g.Spacing)
}

// String renders the canonical encoding:
//
//	v1:<aggressors>.<spacing>.<decoySpread>:<agg>.<tON>.<gap>.<align>,...
//
// with one slot tuple per schedule step and align as 0/1. ParseGenome
// inverts it exactly; the string is the genome's identity everywhere
// (result-store keys, archive names, workload specs).
func (g Genome) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:%d.%d.%d:", GenomeVersion, g.Aggressors, g.Spacing, g.DecoySpread)
	for i, s := range g.Slots {
		if i > 0 {
			b.WriteByte(',')
		}
		align := 0
		if s.Align {
			align = 1
		}
		fmt.Fprintf(&b, "%d.%d.%d.%d", s.Agg, s.TONTrc, s.GapTrc, align)
	}
	return b.String()
}

// ParseGenome decodes a canonical genome string, validating bounds. The
// decoder is strict — g.String() is the only accepted spelling of g —
// so equal strings mean equal genomes and vice versa.
func ParseGenome(spec string) (Genome, error) {
	bad := func(format string, args ...any) (Genome, error) {
		return Genome{}, fmt.Errorf("attack: %w: genome %q: %s",
			errs.ErrBadSpec, spec, fmt.Sprintf(format, args...))
	}
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return bad("want 3 colon-separated sections, have %d", len(parts))
	}
	if parts[0] != GenomeVersion {
		return bad("version %q, want %q", parts[0], GenomeVersion)
	}
	head := strings.Split(parts[1], ".")
	if len(head) != 3 {
		return bad("header wants aggressors.spacing.spread")
	}
	var g Genome
	var err error
	if g.Aggressors, err = parseCanonInt(head[0]); err != nil {
		return bad("aggressors: %v", err)
	}
	if g.Spacing, err = parseCanonInt(head[1]); err != nil {
		return bad("spacing: %v", err)
	}
	if g.DecoySpread, err = parseCanonInt(head[2]); err != nil {
		return bad("decoy spread: %v", err)
	}
	for _, tuple := range strings.Split(parts[2], ",") {
		f := strings.Split(tuple, ".")
		if len(f) != 4 {
			return bad("slot %q wants agg.tON.gap.align", tuple)
		}
		var s Slot
		if s.Agg, err = parseCanonInt(f[0]); err != nil {
			return bad("slot %q aggressor: %v", tuple, err)
		}
		if s.TONTrc, err = parseCanonInt(f[1]); err != nil {
			return bad("slot %q tON: %v", tuple, err)
		}
		if s.GapTrc, err = parseCanonInt(f[2]); err != nil {
			return bad("slot %q gap: %v", tuple, err)
		}
		switch f[3] {
		case "0":
		case "1":
			s.Align = true
		default:
			return bad("slot %q align %q, want 0 or 1", tuple, f[3])
		}
		g.Slots = append(g.Slots, s)
	}
	if err := g.Validate(); err != nil {
		return Genome{}, err
	}
	return g, nil
}

// parseCanonInt accepts only the canonical decimal spelling strconv
// itself would print (no leading zeros, no signs beyond a bare minus),
// keeping String/ParseGenome an exact bijection.
func parseCanonInt(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if strconv.Itoa(n) != s {
		return 0, fmt.Errorf("%q is not canonical", s)
	}
	return n, nil
}

// Clone returns a deep copy (the slot schedule is the only reference).
func (g Genome) Clone() Genome {
	out := g
	out.Slots = append([]Slot(nil), g.Slots...)
	return out
}

// Program replays a genome's schedule as a pull-based Pattern, the same
// contract the hand-written paper patterns implement, so the security
// harness and the trace adapter both consume genomes unchanged.
type Program struct {
	g Genome
	t dram.Timings

	idx      int
	decoyIdx int64
}

// NewProgram compiles a validated genome against the given timings.
func NewProgram(g Genome, t dram.Timings) (*Program, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Program{g: g.Clone(), t: t}, nil
}

// Name implements Pattern: the canonical genome spec, prefixed so
// harness reports and result rows are self-describing.
func (p *Program) Name() string { return "synth:" + p.g.String() }

// AggressorRows implements Pattern.
func (p *Program) AggressorRows() []int64 {
	rows := make([]int64, p.g.Aggressors)
	for i := range rows {
		rows[i] = p.g.AggressorRow(i)
	}
	return rows
}

// Next implements Pattern.
func (p *Program) Next(earliest dram.Tick) Access {
	s := p.g.Slots[p.idx%len(p.g.Slots)]
	p.idx++
	t := &p.t
	actAt := earliest + dram.Tick(s.GapTrc)*t.TRC
	if s.Align {
		// The Fig. 10 alignment: land the ACT within tPRE of the next
		// tRC window boundary so a window-end latch misses the row.
		boundary := ((actAt + t.TPRE) / t.TRC) * t.TRC
		aligned := boundary + t.TRC - t.TPRE + 1
		for aligned < actAt {
			aligned += t.TRC
		}
		actAt = aligned
	}
	var row int64
	if s.Agg < 0 {
		row = genomeDecoyBase + p.decoyIdx%int64(p.g.DecoySpread)
		p.decoyIdx++
	} else {
		row = p.g.AggressorRow(s.Agg)
	}
	return Access{ActAt: actAt, Row: row, TON: t.TRAS + dram.Tick(s.TONTrc)*t.TRC}
}
