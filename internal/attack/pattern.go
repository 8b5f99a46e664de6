// Package attack implements the adversarial DRAM access patterns the paper
// analyzes: pure Rowhammer, pure Row-Press at arbitrary row-open times, the
// ImPress-N decoy pattern of Fig. 10, and the parameterized combined
// RH+RP loop of Fig. 17 (Appendix B).
//
// Patterns are pull-based generators: the security harness asks each
// pattern for its next access given the earliest legal issue time, letting
// phase-sensitive patterns (the decoy) align themselves against the
// defense's tRC windows.
package attack

import (
	"fmt"

	"impress/internal/dram"
)

// Access is one attacker-chosen DRAM access on the target bank.
type Access struct {
	// ActAt is when the ACT is issued (>= the earliest legal time the
	// harness offered).
	ActAt dram.Tick
	// Row is the row to open.
	Row int64
	// TON is how long to keep the row open before precharging.
	TON dram.Tick
}

// Pattern generates an attack's access sequence.
type Pattern interface {
	// Name returns a short identifier for reports.
	Name() string
	// Next returns the next access, issued no earlier than earliest.
	Next(earliest dram.Tick) Access
	// AggressorRows returns the rows the attack hammers/presses, so the
	// harness knows whose victims to watch.
	AggressorRows() []int64
}

// Rowhammer is the classic pattern: activate the aggressor as fast as
// possible, keeping the row open only for the minimum tRAS.
type Rowhammer struct {
	Row     int64
	Timings dram.Timings
}

// Name implements Pattern.
func (r *Rowhammer) Name() string { return "rowhammer" }

// Next implements Pattern.
func (r *Rowhammer) Next(earliest dram.Tick) Access {
	return Access{ActAt: earliest, Row: r.Row, TON: r.Timings.TRAS}
}

// AggressorRows implements Pattern.
func (r *Rowhammer) AggressorRows() []int64 { return []int64{r.Row} }

// RowPress keeps the aggressor open for a fixed TON each round (Fig. 2).
type RowPress struct {
	Row     int64
	TON     dram.Tick
	Timings dram.Timings
}

// Name implements Pattern.
func (r *RowPress) Name() string {
	return fmt.Sprintf("rowpress(tON=%dns)", r.TON.ToNs())
}

// Next implements Pattern.
func (r *RowPress) Next(earliest dram.Tick) Access {
	tON := r.TON
	if tON < r.Timings.TRAS {
		tON = r.Timings.TRAS
	}
	return Access{ActAt: earliest, Row: r.Row, TON: tON}
}

// AggressorRows implements Pattern.
func (r *RowPress) AggressorRows() []int64 { return []int64{r.Row} }

// Decoy is the Fig. 10 worst-case pattern against ImPress-N: the aggressor
// is activated within tPRE of a tRC window boundary (so the window-end
// latch misses the still-opening row), held open for tRC + tRAS (crossing
// exactly one boundary, whose latch is the row's first and therefore emits
// nothing), and then closed by an activation to a decoy row before the
// next boundary. Each round inflicts 1 + alpha damage while the tracker
// sees a single activation of the aggressor.
type Decoy struct {
	Row      int64
	DecoyRow int64 // first decoy row; decoys rotate to stay under trackers
	Spread   int64 // how many decoy rows to rotate over (0 = 64)
	Timings  dram.Timings

	decoyIdx int64
	// phase toggles between the aggressor access and the decoy access.
	decoyTurn bool
}

// Name implements Pattern.
func (d *Decoy) Name() string { return "impress-n-decoy" }

// Next implements Pattern.
func (d *Decoy) Next(earliest dram.Tick) Access {
	t := &d.Timings
	if d.decoyTurn {
		// Close was forced by this decoy ACT; the decoy itself is a plain
		// Rowhammer-style access to a rotating far-away row.
		d.decoyTurn = false
		spread := d.Spread
		if spread <= 0 {
			spread = 64
		}
		row := d.DecoyRow + d.decoyIdx%spread
		d.decoyIdx++
		return Access{ActAt: earliest, Row: row, TON: t.TRAS}
	}
	// Aggressor access: align the ACT to land within tPRE of the next
	// window boundary so the boundary's ORA latch misses the row.
	boundary := ((earliest + t.TPRE) / t.TRC) * t.TRC
	actAt := boundary + t.TRC - t.TPRE + 1
	for actAt < earliest {
		actAt += t.TRC
	}
	d.decoyTurn = true
	return Access{ActAt: actAt, Row: d.Row, TON: t.TRC + t.TRAS}
}

// AggressorRows implements Pattern.
func (d *Decoy) AggressorRows() []int64 { return []int64{d.Row} }

// CombinedK is the parameterized Fig. 17 loop: each round activates the
// aggressor, keeps it open for tRAS + K*tRC, and closes it. K = 0 is pure
// Rowhammer; K = 72 holds the row for a full DDR5 tREFI.
type CombinedK struct {
	Row     int64
	K       int64
	Timings dram.Timings
}

// Name implements Pattern.
func (c *CombinedK) Name() string { return fmt.Sprintf("combined(K=%d)", c.K) }

// Next implements Pattern.
func (c *CombinedK) Next(earliest dram.Tick) Access {
	return Access{
		ActAt: earliest,
		Row:   c.Row,
		TON:   c.Timings.TRAS + dram.Tick(c.K)*c.Timings.TRC,
	}
}

// AggressorRows implements Pattern.
func (c *CombinedK) AggressorRows() []int64 { return []int64{c.Row} }

// ManySided hammers a set of aggressors round-robin (a TRRespass-style
// pattern) — used to stress tracker tables rather than a single row.
type ManySided struct {
	Rows    []int64
	Timings dram.Timings
	idx     int
}

// Name implements Pattern.
func (m *ManySided) Name() string { return fmt.Sprintf("many-sided(%d)", len(m.Rows)) }

// Next implements Pattern.
func (m *ManySided) Next(earliest dram.Tick) Access {
	row := m.Rows[m.idx%len(m.Rows)]
	m.idx++
	return Access{ActAt: earliest, Row: row, TON: m.Timings.TRAS}
}

// AggressorRows implements Pattern.
func (m *ManySided) AggressorRows() []int64 { return m.Rows }

// InterleavedRHRP alternates bursts of Rowhammer with long Row-Press
// holds — an arbitrary mixed pattern exercising the unified charge-loss
// model's claim to handle any interleaving.
type InterleavedRHRP struct {
	Row      int64
	BurstLen int       // RH activations per burst
	HoldTON  dram.Tick // Row-Press open time between bursts
	Timings  dram.Timings
	pos      int
}

// Name implements Pattern.
func (p *InterleavedRHRP) Name() string { return "interleaved-rh-rp" }

// Next implements Pattern.
func (p *InterleavedRHRP) Next(earliest dram.Tick) Access {
	period := p.BurstLen + 1
	inBurst := p.pos%period < p.BurstLen
	p.pos++
	tON := p.Timings.TRAS
	if !inBurst {
		tON = p.HoldTON
	}
	return Access{ActAt: earliest, Row: p.Row, TON: tON}
}

// AggressorRows implements Pattern.
func (p *InterleavedRHRP) AggressorRows() []int64 { return []int64{p.Row} }
