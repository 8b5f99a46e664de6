package trackers

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"impress/internal/clm"
	"impress/internal/errs"
)

// The scan-based Graphene, Mithril and ABACuS that the slot table
// replaced: a row map, per-slot arrays with a used flag, a first-free
// scan and linear min/max scans in slot order. They are the reference
// FuzzSlotTrackersMatchScan holds the slot-table trackers to.

type scanTable struct {
	rows      map[int64]int
	slotRow   []int64
	slotCount []clm.EACT
	slotUsed  []bool
}

func newScanTable(entries int) scanTable {
	return scanTable{
		rows:      make(map[int64]int, entries),
		slotRow:   make([]int64, entries),
		slotCount: make([]clm.EACT, entries),
		slotUsed:  make([]bool, entries),
	}
}

func (t *scanTable) freeSlot() int {
	if len(t.rows) >= len(t.slotUsed) {
		return -1
	}
	for i, used := range t.slotUsed {
		if !used {
			return i
		}
	}
	return -1
}

func (t *scanTable) minSlot() int {
	best := -1
	var bestCount clm.EACT
	for i := range t.slotCount {
		if !t.slotUsed[i] {
			continue
		}
		if best == -1 || t.slotCount[i] < bestCount {
			best = i
			bestCount = t.slotCount[i]
		}
	}
	if best < 0 {
		panic("trackers: minSlot on empty table")
	}
	return best
}

func (t *scanTable) count(row int64) clm.EACT {
	if slot, ok := t.rows[row]; ok {
		return t.slotCount[slot]
	}
	return 0
}

func (t *scanTable) reset() {
	for i := range t.slotUsed {
		t.slotUsed[i] = false
		t.slotCount[i] = 0
	}
	clear(t.rows)
}

func (t *scanTable) snapshot() []SlotState {
	var out []SlotState
	for i, u := range t.slotUsed {
		if u {
			out = append(out, SlotState{Slot: i, Row: t.slotRow[i], Count: t.slotCount[i]})
		}
	}
	return out
}

func (t *scanTable) restore(slots []SlotState) error {
	t.reset()
	for _, s := range slots {
		if s.Slot < 0 || s.Slot >= len(t.slotUsed) || t.slotUsed[s.Slot] {
			return fmt.Errorf("%w: slot %d", errs.ErrBadSpec, s.Slot)
		}
		if _, dup := t.rows[s.Row]; dup {
			return fmt.Errorf("%w: row %d", errs.ErrBadSpec, s.Row)
		}
		t.slotUsed[s.Slot] = true
		t.slotRow[s.Slot] = s.Row
		t.slotCount[s.Slot] = s.Count
		t.rows[s.Row] = s.Slot
	}
	return nil
}

type scanGraphene struct {
	scanTable
	threshold   clm.EACT
	spillover   clm.EACT
	mitigations uint64
}

func (g *scanGraphene) OnActivation(row int64, weight clm.EACT) []int64 {
	slot, tracked := g.rows[row]
	if !tracked {
		if free := g.freeSlot(); free >= 0 {
			slot = free
			g.slotUsed[slot] = true
			g.slotRow[slot] = row
			g.slotCount[slot] = g.spillover
			g.rows[row] = slot
		} else {
			slot = g.minSlot()
			g.spillover = g.slotCount[slot]
			delete(g.rows, g.slotRow[slot])
			g.slotRow[slot] = row
			g.rows[row] = slot
		}
	}
	g.slotCount[slot] += weight
	if g.slotCount[slot] >= g.threshold {
		g.slotCount[slot] = 0
		g.mitigations++
		return []int64{row}
	}
	return nil
}

func (g *scanGraphene) OnRFM() []int64 { return nil }

func (g *scanGraphene) ResetWindow() {
	g.reset()
	g.spillover = 0
}

func (g *scanGraphene) Snapshot() State {
	return State{Kind: "graphene", Slots: g.snapshot(), Spillover: g.spillover, Mitigations: g.mitigations}
}

func (g *scanGraphene) RestoreState(s State) error {
	g.spillover, g.mitigations = s.Spillover, s.Mitigations
	return g.restore(s.Slots)
}

type scanMithril struct {
	scanTable
	mitigations uint64
}

func (m *scanMithril) OnActivation(row int64, weight clm.EACT) []int64 {
	slot, tracked := m.rows[row]
	if !tracked {
		if free := m.freeSlot(); free >= 0 {
			slot = free
			m.slotUsed[slot] = true
			m.slotRow[slot] = row
			m.slotCount[slot] = 0
			m.rows[row] = slot
		} else {
			slot = m.minSlot()
			delete(m.rows, m.slotRow[slot])
			m.slotRow[slot] = row
			m.rows[row] = slot
		}
	}
	m.slotCount[slot] += weight
	return nil
}

func (m *scanMithril) OnRFM() []int64 {
	best := -1
	var bestCount clm.EACT
	for i := range m.slotCount {
		if !m.slotUsed[i] {
			continue
		}
		if best == -1 || m.slotCount[i] > bestCount {
			best = i
			bestCount = m.slotCount[i]
		}
	}
	if best < 0 || bestCount == 0 {
		return nil
	}
	m.slotCount[best] = 0
	m.mitigations++
	return []int64{m.slotRow[best]}
}

func (m *scanMithril) ResetWindow() { m.reset() }

func (m *scanMithril) Snapshot() State {
	return State{Kind: "mithril", Slots: m.snapshot(), Mitigations: m.mitigations}
}

func (m *scanMithril) RestoreState(s State) error {
	m.mitigations = s.Mitigations
	return m.restore(s.Slots)
}

type scanABACuS struct {
	scanTable
	threshold   clm.EACT
	mitigations uint64
}

func (a *scanABACuS) OnActivation(row int64, weight clm.EACT) []int64 {
	slot, tracked := a.rows[row]
	if !tracked {
		if free := a.freeSlot(); free >= 0 {
			slot = free
		} else {
			slot = a.minSlot()
			delete(a.rows, a.slotRow[slot])
		}
		a.slotUsed[slot] = true
		a.slotRow[slot] = row
		a.slotCount[slot] = 0
		a.rows[row] = slot
	}
	a.slotCount[slot] += weight
	if a.slotCount[slot] >= a.threshold {
		a.slotCount[slot] = 0
		a.mitigations++
		return []int64{row}
	}
	return nil
}

func (a *scanABACuS) OnRFM() []int64 { return nil }

func (a *scanABACuS) ResetWindow() { a.reset() }

func (a *scanABACuS) Snapshot() State {
	return State{Kind: "abacus", Slots: a.snapshot(), Mitigations: a.mitigations}
}

func (a *scanABACuS) RestoreState(s State) error {
	a.mitigations = s.Mitigations
	return a.restore(s.Slots)
}

// slotTracker is what the oracle drives on both sides.
type slotTracker interface {
	OnActivation(row int64, weight clm.EACT) []int64
	OnRFM() []int64
	ResetWindow()
	count(row int64) clm.EACT
	Snapshotter
}

// count returns the tracked fixed-point count for row (zero if
// untracked).
func (t *slotTable) count(row int64) clm.EACT {
	if slot := t.lookup(row); slot >= 0 {
		return t.slots[slot].count
	}
	return 0
}

// oracleWeights mixes plain ACTs with fractional ImPress-P weights
// (EACT = (tON+tPRE)/tRC is at least One and rarely whole).
var oracleWeights = []clm.EACT{
	clm.One, clm.One, clm.One, clm.One,
	clm.One + clm.One/3, 3 * clm.One / 2, 2*clm.One + clm.One/7, clm.One + 1,
}

// slotTrackerPairs builds each slot-table tracker beside its scan-based
// reference, both with the given entry count and threshold.
func slotTrackerPairs(entries int, threshold clm.EACT) map[string][2]func() slotTracker {
	return map[string][2]func() slotTracker{
		"graphene": {
			func() slotTracker { return NewGrapheneRaw(entries, threshold) },
			func() slotTracker { return &scanGraphene{scanTable: newScanTable(entries), threshold: threshold} },
		},
		"mithril": {
			func() slotTracker { return NewMithrilRaw(entries, 80) },
			func() slotTracker { return &scanMithril{scanTable: newScanTable(entries)} },
		},
		"abacus": {
			func() slotTracker {
				return &ABACuS{threshold: threshold, slotTable: newSlotTable(entries, slotPolicy{restart: true})}
			},
			func() slotTracker { return &scanABACuS{scanTable: newScanTable(entries), threshold: threshold} },
		},
	}
}

// FuzzSlotTrackersMatchScan drives Graphene, Mithril and ABACuS and their
// scan-based references through one random stream of activations (plain
// and fractional weights), RFMs, window resets and snapshot→restore
// round trips, and requires identical results from every call and
// identical counts and snapshots after it. The first two bytes size the
// table (1–8 entries) and the mitigation threshold (2–17 ACTs); each
// later byte pair is one operation on a row range of 2×entries+2, so
// most streams evict constantly.
func FuzzSlotTrackersMatchScan(f *testing.F) {
	// Eviction-heavy: a sweep over more rows than entries.
	sweep := []byte{3, 5}
	for i := 0; i < 200; i++ {
		sweep = append(sweep, byte(i%32), byte(i))
	}
	f.Add(sweep)
	// Tie-heavy: unit weights over entries+1 rows keep counts equal, so
	// every eviction and RFM is decided by the lowest slot.
	ties := []byte{3, 15} // 4 entries
	for i := 0; i < 300; i++ {
		op := byte(i % 4) // ops 0–3 with a small row byte: weight One
		if i%17 == 16 {
			op = 12 // RFM
		}
		ties = append(ties, op, byte(i%5))
	}
	f.Add(ties)
	// Fractional weights, RFMs, a window reset and snapshot round trips.
	mixed := []byte{6, 9}
	for i := 0; i < 400; i++ {
		mixed = append(mixed, byte(i*7%16), byte(i*13))
	}
	f.Add(mixed)
	f.Add([]byte{0, 0, 12, 0, 15, 0, 14, 0, 1, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		entries := 1 + int(data[0]%8)
		threshold := clm.EACT(2+data[1]%16) * clm.One
		rowSpan := int64(2*entries + 2)
		ops := data[2:]
		for _, name := range []string{"graphene", "mithril", "abacus"} {
			build := slotTrackerPairs(entries, threshold)[name]
			got, want := build[0](), build[1]()
			for i := 0; i+1 < len(ops); i += 2 {
				op, arg := ops[i]%16, ops[i+1]
				row := int64(arg) % rowSpan
				var g, w []int64
				switch {
				case op < 12:
					weight := oracleWeights[(int(op)+int(arg>>5))%len(oracleWeights)]
					g, w = got.OnActivation(row, weight), want.OnActivation(row, weight)
				case op < 14:
					g, w = got.OnRFM(), want.OnRFM()
				case op == 14:
					got.ResetWindow()
					want.ResetWindow()
				default:
					snap := got.Snapshot()
					got = build[0]()
					if err := got.RestoreState(snap); err != nil {
						t.Fatalf("%s op %d: RestoreState: %v", name, i/2, err)
					}
				}
				if !slices.Equal(g, w) {
					t.Fatalf("%s op %d (%d, row %d): got %v, want %v", name, i/2, op, row, g, w)
				}
				if gc, wc := got.count(row), want.count(row); gc != wc {
					t.Fatalf("%s op %d: Count(%d) = %v, want %v", name, i/2, row, gc, wc)
				}
				if gs, ws := got.Snapshot(), want.Snapshot(); !reflect.DeepEqual(gs, ws) {
					t.Fatalf("%s op %d: snapshot\n got %+v\nwant %+v", name, i/2, gs, ws)
				}
			}
		}
	})
}
