package trackers

import (
	"fmt"

	"impress/internal/clm"
	"impress/internal/errs"
)

// slotTable is the frequent-items counter table behind Graphene, Mithril
// and ABACuS: a fixed number of (row, count) slots, a row index, and
// indexed binary heaps that find the entry to evict (and, for Mithril,
// the entry to mitigate) in O(log entries) instead of a scan.
//
// Slots fill as a prefix and are freed only all at once, by reset. Every
// order the trackers observe breaks count ties toward the lowest slot,
// as a scan in slot order would, so the layout is observable and
// snapshots record it.
//
// The min-heap, on (key, slot), is lazy: an entry's key is its count at
// its last heap fix, so key ≤ count. An increment only raises count; a
// reset to zero lowers both and sifts up. Eviction refreshes the root
// while its key is stale and then takes it, which is exact: the root's
// (count, slot) ≤ every entry's (key, slot) ≤ that entry's (count, slot).
// The optional max-heap, on (−count, slot), is kept exact; a hot row sits
// near its root, so its sifts are short.
//
// The row index is open-addressed with linear probing: a power-of-two
// array of slot+1 (0 is empty) at least twice the entry count, compared
// through slots[i].row, with backward-shift deletion. It keeps a Graphene
// near the footprint of the Go map it replaces, without the hashing.
type slotTable struct {
	slots  []slotEntry // occupied prefix; cap is the entry count
	index  []int32     // row index: slot+1, 0 for an empty cell
	shift  uint        // 64 − log2(len(index)), for the multiplicative hash
	heaps  [2][]int32  // byMin and byMax; heaps[byMax] is nil if unused
	policy slotPolicy

	out         [1]int64 // mitigateSlot's result buffer
	mitigations uint64
}

// slotPolicy is what differs between the trackers on the table.
type slotPolicy struct {
	// restart starts a newcomer that evicts an entry from zero (ABACuS)
	// instead of from the evicted count (Space-Saving: Graphene, Mithril).
	restart bool
	// maxHeap keeps the max-heap Mithril mitigates from under RFM.
	maxHeap bool
}

type slotEntry struct {
	row   int64
	count clm.EACT
	key   clm.EACT // byMin key: count at the last fix, ≤ count
	pos   [2]int32 // position in each heap
}

// The two heaps.
const (
	byMin = iota
	byMax
)

// newSlotTable builds an empty table of the given entry count.
func newSlotTable(entries int, policy slotPolicy) slotTable {
	size, shift := 2, uint(63)
	for size < 2*entries {
		size, shift = size<<1, shift-1
	}
	t := slotTable{
		slots:  make([]slotEntry, 0, entries),
		index:  make([]int32, size),
		shift:  shift,
		policy: policy,
	}
	t.heaps[byMin] = make([]int32, 0, entries)
	if policy.maxHeap {
		t.heaps[byMax] = make([]int32, 0, entries)
	}
	return t
}

// Entries returns the table size.
func (t *slotTable) Entries() int { return cap(t.slots) }

// mitigateSlot resets slot's count — a mitigation refreshed its row's
// victims, so the row must re-earn the next one — and returns the row as
// a one-row mitigation list in the table's buffer.
func (t *slotTable) mitigateSlot(slot int) []int64 {
	t.zero(slot)
	t.mitigations++
	return mitigate(&t.out, t.slots[slot].row)
}

// home is row's preferred index cell (Fibonacci hashing).
func (t *slotTable) home(row int64) int {
	return int(uint64(row) * 0x9E3779B97F4A7C15 >> t.shift)
}

// lookup returns row's slot, or -1 if the row is not tracked.
func (t *slotTable) lookup(row int64) int {
	mask := len(t.index) - 1
	for i := t.home(row); ; i = (i + 1) & mask {
		e := t.index[i]
		if e == 0 {
			return -1
		}
		if t.slots[e-1].row == row {
			return int(e - 1)
		}
	}
}

// indexSlot records slot under its row; the row must not be indexed.
func (t *slotTable) indexSlot(slot int) {
	mask := len(t.index) - 1
	i := t.home(t.slots[slot].row)
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = int32(slot + 1)
}

// unindex removes row, which must be indexed, shifting later cells of
// its probe run back into the gap so that lookups never stop early.
func (t *slotTable) unindex(row int64) {
	mask := len(t.index) - 1
	i := t.home(row)
	for t.slots[t.index[i]-1].row != row {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		// Move j's entry into the gap unless its home lies in (i, j].
		h := t.home(t.slots[t.index[j]-1].row)
		if (j-h)&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
}

// insert places an untracked row with the given count in the next free
// slot and returns the slot. It returns -1 when the table is full.
func (t *slotTable) insert(row int64, count clm.EACT) int {
	slot := len(t.slots)
	if slot == cap(t.slots) {
		return -1
	}
	t.slots = append(t.slots, slotEntry{row: row, count: count, key: count})
	t.indexSlot(slot)
	for h, heap := range t.heaps {
		if heap != nil {
			t.heaps[h] = append(heap, int32(slot))
			t.siftUp(h, slot, slot)
		}
	}
	return slot
}

// track returns row's slot. An untracked row takes the next free slot,
// starting from count start, or, when the table is full, evicts the entry
// with the lowest (count, slot) and takes over its slot and count (or
// zero, under policy.restart); evicted reports the latter.
func (t *slotTable) track(row int64, start clm.EACT) (slot int, evicted bool) {
	if slot = t.lookup(row); slot >= 0 {
		return slot, false
	}
	if slot = t.insert(row, start); slot >= 0 {
		return slot, false
	}
	slot = int(t.heaps[byMin][0])
	for e := &t.slots[slot]; e.key != e.count; e = &t.slots[slot] {
		e.key = e.count
		t.siftDown(byMin, slot, 0)
		slot = int(t.heaps[byMin][0])
	}
	t.unindex(t.slots[slot].row)
	t.slots[slot].row = row
	t.indexSlot(slot)
	if t.policy.restart {
		t.zero(slot)
	}
	return slot, true
}

// add raises slot's count by w and returns the new count. The byMin key
// stays behind (lazily); the max-heap is fixed at once.
func (t *slotTable) add(slot int, w clm.EACT) clm.EACT {
	e := &t.slots[slot]
	e.count += w
	if t.heaps[byMax] != nil {
		t.siftUp(byMax, slot, int(e.pos[byMax]))
	}
	return e.count
}

// zero resets slot's count (a mitigation, or an ABACuS restart).
func (t *slotTable) zero(slot int) {
	e := &t.slots[slot]
	e.count, e.key = 0, 0
	t.siftUp(byMin, slot, int(e.pos[byMin]))
	if t.heaps[byMax] != nil {
		t.siftDown(byMax, slot, int(e.pos[byMax]))
	}
}

// reset frees every slot: the refresh-window boundary.
func (t *slotTable) reset() {
	t.slots = t.slots[:0]
	t.heaps[byMin] = t.heaps[byMin][:0]
	t.heaps[byMax] = t.heaps[byMax][:0]
	clear(t.index)
}

// before reports whether slot a precedes slot b in heap h: ascending
// (key, slot) for byMin, ascending (^count, slot) — descending count —
// for byMax.
func (t *slotTable) before(h int, a, b int32) bool {
	ka, kb := t.slots[a].key, t.slots[b].key
	if h == byMax {
		ka, kb = ^t.slots[a].count, ^t.slots[b].count
	}
	return ka < kb || (ka == kb && a < b)
}

// siftUp moves slot, sitting at position i of heap h, toward the root.
func (t *slotTable) siftUp(h, slot, i int) {
	heap, s := t.heaps[h], int32(slot)
	for i > 0 {
		p := (i - 1) / 2
		if !t.before(h, s, heap[p]) {
			break
		}
		heap[i] = heap[p]
		t.slots[heap[i]].pos[h] = int32(i)
		i = p
	}
	heap[i] = s
	t.slots[s].pos[h] = int32(i)
}

// siftDown moves slot, sitting at position i of heap h, toward the leaves.
func (t *slotTable) siftDown(h, slot, i int) {
	heap, s := t.heaps[h], int32(slot)
	for {
		c := 2*i + 1
		if c >= len(heap) {
			break
		}
		if c+1 < len(heap) && t.before(h, heap[c+1], heap[c]) {
			c++
		}
		if !t.before(h, heap[c], s) {
			break
		}
		heap[i] = heap[c]
		t.slots[heap[i]].pos[h] = int32(i)
		i = c
	}
	heap[i] = s
	t.slots[s].pos[h] = int32(i)
}

// snapshot returns the table's state under the tracker kind: the
// occupied slots in slot order and the mitigation count.
func (t *slotTable) snapshot(kind string) State {
	s := State{Kind: kind, Mitigations: t.mitigations}
	for i, e := range t.slots {
		s.Slots = append(s.Slots, SlotState{Slot: i, Row: e.row, Count: e.count})
	}
	return s
}

// restore replaces the table's state with a snapshot of the tracker kind.
// Its slots must be exactly the prefix 0..n−1 (in any order) with
// distinct rows: the only layouts the table reaches. The heaps are
// rebuilt from the counts. On a bad slot set the table is left empty.
func (t *slotTable) restore(kind string, s State) error {
	if s.Kind != kind {
		return restoreKindErr(kind, s.Kind)
	}
	t.reset()
	ordered := make([]*SlotState, len(s.Slots))
	for i := range s.Slots {
		e := &s.Slots[i]
		if e.Slot < 0 || e.Slot >= len(ordered) || ordered[e.Slot] != nil {
			return fmt.Errorf("trackers: %w: checkpoint slots are not a permutation of 0..%d (slot %d)",
				errs.ErrBadSpec, len(ordered)-1, e.Slot)
		}
		ordered[e.Slot] = e
	}
	for _, e := range ordered {
		if t.lookup(e.Row) >= 0 || t.insert(e.Row, e.Count) < 0 {
			t.reset()
			return fmt.Errorf("trackers: %w: checkpoint row %d repeated, or more than %d slots",
				errs.ErrBadSpec, e.Row, t.Entries())
		}
	}
	t.mitigations = s.Mitigations
	return nil
}
