package trackers

import (
	"fmt"
	"sort"

	"impress/internal/clm"
	"impress/internal/errs"
)

// SlotState is one occupied entry of a counter-table tracker (Graphene,
// Mithril, ABACuS), identified by its slot index so a restore reproduces
// the exact table layout — eviction and mitigation break count ties
// toward the lowest slot, so the layout is observable. A table's slots
// are always the prefix 0..n−1; RestoreState rejects any other set.
type SlotState struct {
	Slot  int      `json:"slot"`
	Row   int64    `json:"row"`
	Count clm.EACT `json:"count"`
}

// State is a kind-tagged serializable snapshot of a tracker's mutable
// state, used by warmup checkpoints. Only the fields relevant to the
// tagged kind are populated; sizing parameters (entry counts,
// thresholds, probabilities) are not captured — they are rebuilt from
// the simulation config, and RestoreState assumes the receiver was
// constructed with the same config that produced the snapshot.
type State struct {
	Kind string `json:"kind"`

	// Counter tables (graphene, mithril, abacus): occupied slots in index
	// order. Hydra reuses the field for its per-row exact counters, keyed
	// by row (Slot unused) and sorted by row for deterministic encoding.
	Slots     []SlotState `json:"slots,omitempty"`
	Spillover clm.EACT    `json:"spillover,omitempty"` // graphene only

	// Groups holds hydra's non-zero GCT counters (Slot = group index).
	Groups []SlotState `json:"groups,omitempty"`

	// Probabilistic trackers (para, mint): the private RNG stream.
	RNG [4]uint64 `json:"rng"`

	// MINT registers.
	SAN      clm.EACT `json:"san,omitempty"`
	CAN      clm.EACT `json:"can,omitempty"`
	SAR      int64    `json:"sar,omitempty"`
	SARValid bool     `json:"sarValid,omitempty"`

	Mitigations uint64 `json:"mitigations,omitempty"`
}

// Snapshotter is implemented by trackers that support warmup
// checkpointing. The restored tracker must be behaviorally identical to
// the snapshotted one: same future mitigations for the same future
// activation stream.
type Snapshotter interface {
	Snapshot() State
	RestoreState(State) error
}

func restoreKindErr(want, got string) error {
	return fmt.Errorf("trackers: %w: checkpoint state kind %q, want %q",
		errs.ErrBadSpec, got, want)
}

// Snapshot implements Snapshotter.
func (g *Graphene) Snapshot() State {
	s := g.snapshot(g.Name())
	s.Spillover = g.spillover
	return s
}

// RestoreState implements Snapshotter.
func (g *Graphene) RestoreState(s State) error {
	if err := g.restore(g.Name(), s); err != nil {
		return err
	}
	g.spillover = s.Spillover
	return nil
}

// Snapshot implements Snapshotter.
func (m *Mithril) Snapshot() State { return m.snapshot(m.Name()) }

// RestoreState implements Snapshotter.
func (m *Mithril) RestoreState(s State) error { return m.restore(m.Name(), s) }

// Snapshot implements Snapshotter.
func (p *PARA) Snapshot() State {
	return State{Kind: p.Name(), RNG: p.rng.State(), Mitigations: p.mitigations}
}

// RestoreState implements Snapshotter.
func (p *PARA) RestoreState(s State) error {
	if s.Kind != p.Name() {
		return restoreKindErr(p.Name(), s.Kind)
	}
	p.rng.SetState(s.RNG)
	p.mitigations = s.Mitigations
	return nil
}

// Snapshot implements Snapshotter.
func (m *MINT) Snapshot() State {
	return State{
		Kind:        m.Name(),
		RNG:         m.rng.State(),
		SAN:         m.san,
		CAN:         m.can,
		SAR:         m.sar,
		SARValid:    m.sarValid,
		Mitigations: m.mitigations,
	}
}

// RestoreState implements Snapshotter. The constructor's initial drawSAN
// is overwritten wholesale: SAN, CAN, SAR and the RNG stream all come
// from the snapshot, so the restored instance replays the original's
// exact future slot selections.
func (m *MINT) RestoreState(s State) error {
	if s.Kind != m.Name() {
		return restoreKindErr(m.Name(), s.Kind)
	}
	m.rng.SetState(s.RNG)
	m.san = s.SAN
	m.can = s.CAN
	m.sar = s.SAR
	m.sarValid = s.SARValid
	m.mitigations = s.Mitigations
	return nil
}

// Snapshot implements Snapshotter.
func (a *ABACuS) Snapshot() State { return a.snapshot(a.Name()) }

// RestoreState implements Snapshotter.
func (a *ABACuS) RestoreState(s State) error { return a.restore(a.Name(), s) }

// Snapshot implements Snapshotter. GCT counters are captured sparsely by
// group index; per-row exact counters go into Slots keyed by row, sorted
// so the encoding is deterministic (the backing store is a map).
func (h *Hydra) Snapshot() State {
	s := State{Kind: h.Name(), Mitigations: h.mitigations}
	for g, c := range h.gct {
		if c != 0 {
			s.Groups = append(s.Groups, SlotState{Slot: g, Count: c})
		}
	}
	rows := make([]int64, 0, len(h.rows))
	for row := range h.rows {
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	for _, row := range rows {
		s.Slots = append(s.Slots, SlotState{Row: row, Count: h.rows[row]})
	}
	return s
}

// RestoreState implements Snapshotter.
func (h *Hydra) RestoreState(s State) error {
	if s.Kind != h.Name() {
		return restoreKindErr(h.Name(), s.Kind)
	}
	h.ResetWindow()
	for _, g := range s.Groups {
		if g.Slot < 0 || g.Slot >= len(h.gct) {
			return fmt.Errorf("trackers: %w: checkpoint group %d out of range [0,%d)",
				errs.ErrBadSpec, g.Slot, len(h.gct))
		}
		h.gct[g.Slot] = g.Count
	}
	for _, r := range s.Slots {
		if _, dup := h.rows[r.Row]; dup {
			return fmt.Errorf("trackers: %w: checkpoint row %d duplicated",
				errs.ErrBadSpec, r.Row)
		}
		h.rows[r.Row] = r.Count
	}
	h.mitigations = s.Mitigations
	return nil
}
