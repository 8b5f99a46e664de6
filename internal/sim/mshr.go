package sim

import (
	"math/bits"
	"slices"

	"impress/internal/cpu"
)

// mshr is one outstanding line fetch.
type mshr struct {
	line  uint64
	dirty bool
	// uncached is set when the fetch was allocated by an LLC-bypassing
	// operation: the returning line is not filled into the LLC, and a
	// dirty one is written back to memory directly.
	uncached bool
	waiters  []*cpu.MemOp
	slot     int32 // index in the table's slab
}

// mshrTable holds the outstanding line fetches in a fixed slab, indexed
// by an open-addressed hash of the line (linear probing, backward-shift
// deletion, so there are no tombstones). An MSHR is allocated together
// with the one read it queues at the memory controller and released when
// that read issues, so the controller's total read-queue capacity bounds
// the slab — stores allocate MSHRs too, so the cores' MSHR budgets do
// not. Slots, their waiter lists and the index are reused, and each
// waiter list starts with room for mshrWaiters operations, so the miss
// path allocates nothing in steady state.
type mshrTable struct {
	slab  []mshr
	free  []int32 // free slots, used as a stack
	index []int32 // slot of the line hashed here, -1 when empty
	shift uint    // 64 - log2(len(index))
	n     int
}

// mshrWaiters is each slot's initial waiter capacity: a core streaming
// through a line merges one read per access into its fetch.
const mshrWaiters = 8

func newMSHRTable(capacity int) mshrTable {
	size := 1 << bits.Len(uint(2*capacity-1)) // at most half full
	t := mshrTable{
		slab:  make([]mshr, capacity),
		free:  make([]int32, capacity),
		index: make([]int32, size),
		shift: uint(64 - bits.TrailingZeros(uint(size))),
	}
	waiters := make([]*cpu.MemOp, capacity*mshrWaiters)
	for i := range t.free {
		t.free[i] = int32(capacity - 1 - i)
		t.slab[i].slot = int32(i)
		t.slab[i].waiters = waiters[i*mshrWaiters : i*mshrWaiters : (i+1)*mshrWaiters]
	}
	for i := range t.index {
		t.index[i] = -1
	}
	return t
}

// home is the line's preferred index position (Fibonacci hashing).
func (t *mshrTable) home(line uint64) int {
	return int((line * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns the MSHR fetching line, or nil.
func (t *mshrTable) get(line uint64) *mshr {
	mask := len(t.index) - 1
	for i := t.home(line); ; i = (i + 1) & mask {
		s := t.index[i]
		if s < 0 {
			return nil
		}
		if t.slab[s].line == line {
			return &t.slab[s]
		}
	}
}

// alloc claims an MSHR for line, which must not have one. The slab
// bound is an invariant of the simulator (see mshrTable), so running out
// is a bug.
func (t *mshrTable) alloc(line uint64) *mshr {
	if len(t.free) == 0 {
		panic("sim: MSHR slab exhausted (more line fetches than read-queue slots)")
	}
	s := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	m := &t.slab[s]
	m.line, m.dirty, m.uncached, m.waiters = line, false, false, m.waiters[:0]
	mask := len(t.index) - 1
	i := t.home(line)
	for t.index[i] >= 0 {
		i = (i + 1) & mask
	}
	t.index[i] = s
	t.n++
	return m
}

// release frees m and removes its line from the index, shifting later
// entries of its probe run back so every lookup still finds its line.
func (t *mshrTable) release(m *mshr) {
	mask := len(t.index) - 1
	i := t.home(m.line)
	for t.index[i] != m.slot {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.index[j] >= 0; j = (j + 1) & mask {
		// The entry at j may move to the hole at i when its home is not
		// cyclically within (i, j].
		if h := t.home(t.slab[t.index[j]].line); (j-h)&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = -1
	clear(m.waiters) // drop the op references
	m.waiters = m.waiters[:0]
	t.free = append(t.free, m.slot)
	t.n--
}

// lines returns the lines of every outstanding fetch in ascending order,
// the deterministic order checkpoints and the sampled clock's quiesce use.
func (t *mshrTable) lines() []uint64 {
	out := make([]uint64, 0, t.n)
	for _, s := range t.index {
		if s >= 0 {
			out = append(out, t.slab[s].line)
		}
	}
	slices.Sort(out)
	return out
}
