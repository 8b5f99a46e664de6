package memctrl

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"impress/internal/dram"
)

// bankSet is a bitmap of bank indices. Hot loops walk it in ascending
// bank order with bits.TrailingZeros64 over each word.
type bankSet []uint64

func newBankSet(banks int) bankSet { return make(bankSet, (banks+63)/64) }

func (s bankSet) add(b int)    { s[b>>6] |= 1 << (b & 63) }
func (s bankSet) remove(b int) { s[b>>6] &^= 1 << (b & 63) }

// within returns word w of the set restricted to banks [lo, hi).
func (s bankSet) within(w, lo, hi int) uint64 {
	word := s[w]
	if base := w << 6; lo > base {
		word &= ^uint64(0) << (lo - base)
	}
	if end := (w + 1) << 6; hi < end {
		word &= 1<<(hi-w<<6) - 1
	}
	return word
}

// queued is one demand request, a node of its bank's list in the
// queue's slab.
type queued struct {
	addr       uint64
	row        int64
	col        int
	seq        uint64 // arrival order within the queue
	arrive     dram.Tick
	prev, next int32 // neighbours in the bank's list (next also links the free list); -1 at the ends
}

// noSeq is the sequence number of an absent candidate; it compares
// younger than every queued request.
const noSeq = math.MaxUint64

// bankQueue is one bank's share of a demand queue: a doubly linked list
// of slab nodes in arrival order, with its two FR-FCFS candidates cached.
// hit is the node of the oldest request on the bank's open row and miss
// that of the oldest one that is not (every request misses a closed
// bank), -1 when there is none. hitSeq and missSeq are their sequence
// numbers (noSeq when absent), kept here so a scheduling pass reads this
// struct and not the list. The bank's oldest request is its head, and
// whichever candidate is older. All four are refreshed when the list or
// the bank's row state changes.
type bankQueue struct {
	head, tail      int32
	len             int
	hit, miss       int32
	hitSeq, missSeq uint64
}

// refresh recomputes bank b's candidates against its row state.
func (q *reqQueue) refresh(b int, open bool, openRow int64) {
	bq := &q.banks[b]
	bq.hit, bq.miss = -1, -1
	bq.hitSeq, bq.missSeq = noSeq, noSeq
	if !open {
		if bq.head >= 0 {
			bq.miss, bq.missSeq = bq.head, q.nodes[bq.head].seq
		}
		return
	}
	for i := bq.head; i >= 0; i = q.nodes[i].next {
		if q.nodes[i].row == openRow {
			if bq.hit < 0 {
				bq.hit, bq.hitSeq = i, q.nodes[i].seq
			}
		} else if bq.miss < 0 {
			bq.miss, bq.missSeq = i, q.nodes[i].seq
		}
		if bq.hit >= 0 && bq.miss >= 0 {
			return
		}
	}
}

// The candidate kinds of the scheduling index: a bank's oldest row hit
// waits for its column command, its oldest miss for a conflict PRE (open
// bank) or an ACT (closed bank).
const (
	candHit = iota
	candPre
	candAct
	numCands
)

// reqQueue is one channel's read or write queue, indexed by bank. Its
// requests live in a slab of capacity nodes, threaded into per-bank lists
// and a free list, so queueing allocates nothing.
//
// It also carries the FR-FCFS scheduling index. at[k][b] is the
// bank-local ready tick of bank b's candidate k: the tick at which the
// bank's own timing allows the command (EarliestColumn, EarliestPrecharge
// or EarliestActivate), or dram.TickMax when the candidate is absent or
// the bank sits behind an open mitigation row. The sub-channel terms — the
// data bus (busFreeAt) and the ACT rate floor (ActivateFloor) — are the
// same for every bank of a sub-channel, so they are applied when the index
// is read, not stored. subMin[s][k] is the minimum of at[k] over
// sub-channel s's banks, kept exact on every update, and oldSeq/oldBank
// name the queue's oldest request. The controller refreshes a bank's
// ticks wherever they can change (Controller.index).
type reqQueue struct {
	banks   []bankQueue
	nodes   []queued
	free    int32   // first free node, -1 when full
	pending bankSet // banks with queued requests
	n       int
	nextSeq uint64

	at      [numCands][]dram.Tick
	subMin  [2][numCands]dram.Tick
	half    int // first bank of sub-channel 1 (dram.Channel.SubChannel)
	oldSeq  uint64
	oldBank int
}

func newReqQueue(banks, half, capacity int) reqQueue {
	q := reqQueue{
		banks:   make([]bankQueue, banks),
		nodes:   make([]queued, capacity),
		pending: newBankSet(banks),
		half:    half,
	}
	for k := range q.at {
		q.at[k] = make([]dram.Tick, banks)
	}
	q.reset()
	return q
}

// subOf returns bank b's sub-channel.
func (q *reqQueue) subOf(b int) int {
	if b < q.half {
		return 0
	}
	return 1
}

// subRange returns sub-channel s's banks as the range [lo, hi).
func (q *reqQueue) subRange(s int) (lo, hi int) {
	if s == 0 {
		return 0, q.half
	}
	return q.half, len(q.banks)
}

// push appends r to bank b's list and updates the bank's candidates
// incrementally. The caller checks capacity and re-indexes the bank's
// ticks.
func (q *reqQueue) push(b int, r queued, open bool, openRow int64) {
	r.seq = q.nextSeq
	q.nextSeq++
	if q.n == 0 {
		q.oldSeq, q.oldBank = r.seq, b // every later push is younger
	}
	bq := &q.banks[b]
	i := q.free
	q.free = q.nodes[i].next
	r.prev, r.next = bq.tail, -1
	q.nodes[i] = r
	if bq.tail >= 0 {
		q.nodes[bq.tail].next = i
	} else {
		bq.head = i
	}
	bq.tail = i
	bq.len++
	if open && r.row == openRow {
		if bq.hit < 0 {
			bq.hit, bq.hitSeq = i, r.seq
		}
	} else if bq.miss < 0 {
		bq.miss, bq.missSeq = i, r.seq
	}
	q.pending.add(b)
	q.n++
}

// remove unlinks node i from bank b's list. The caller re-indexes the
// bank's ticks.
func (q *reqQueue) remove(b int, i int32, open bool, openRow int64) {
	bq := &q.banks[b]
	r := &q.nodes[i]
	seq := r.seq
	if r.prev >= 0 {
		q.nodes[r.prev].next = r.next
	} else {
		bq.head = r.next
	}
	if r.next >= 0 {
		q.nodes[r.next].prev = r.prev
	} else {
		bq.tail = r.prev
	}
	r.next = q.free
	q.free = i
	if bq.len--; bq.len == 0 {
		q.pending.remove(b)
	}
	q.n--
	q.refresh(b, open, openRow)
	if seq == q.oldSeq {
		q.findOldest()
	}
}

// findOldest recomputes the queue's oldest request from each pending
// bank's candidates (a bank's oldest request is its older candidate).
func (q *reqQueue) findOldest() {
	q.oldSeq, q.oldBank = noSeq, -1
	for w, word := range q.pending {
		for ; word != 0; word &= word - 1 {
			b := w<<6 | bits.TrailingZeros64(word)
			if s := min(q.banks[b].hitSeq, q.banks[b].missSeq); s < q.oldSeq {
				q.oldSeq, q.oldBank = s, b
			}
		}
	}
}

// setTicks stores bank b's candidate ticks and keeps its sub-channel's
// minima exact: a lower tick lowers the minimum, and raising the tick
// that held it rescans the sub-channel.
//
//impress:hotpath
func (q *reqQueue) setTicks(b int, t *[numCands]dram.Tick) {
	s := q.subOf(b)
	m := &q.subMin[s]
	for k, v := range t {
		old := q.at[k][b]
		if v == old {
			continue
		}
		q.at[k][b] = v
		switch {
		case v < m[k]:
			m[k] = v
		case old == m[k]:
			m[k] = q.scanMin(k, s)
		}
	}
}

// scanMin is the minimum of candidate k's ticks over sub-channel s.
func (q *reqQueue) scanMin(k, s int) dram.Tick {
	lo, hi := q.subRange(s)
	m := dram.TickMax
	for _, v := range q.at[k][lo:hi] {
		m = min(m, v)
	}
	return m
}

// readyAt returns the ticks at which bank b's candidates could issue,
// given its sub-channel's data-bus and ACT-floor ticks: its oldest hit a
// column command (hitAt), and its oldest miss a conflict PRE or an ACT
// (workAt). Each is exact: the command is legal at it and at no earlier
// tick, so "ready at now" is hitAt <= now.
func (q *reqQueue) readyAt(b int, busFree, floor dram.Tick) (hitAt, workAt dram.Tick) {
	return max(q.at[candHit][b], busFree), min(q.at[candPre][b], max(q.at[candAct][b], floor))
}

// subReadyAt is readyAt over sub-channel s's minima: the earliest ticks
// at which any of its banks' candidates could issue.
func (q *reqQueue) subReadyAt(s int, busFree, floor dram.Tick) (hitAt, workAt dram.Tick) {
	m := &q.subMin[s]
	return max(m[candHit], busFree), min(m[candPre], max(m[candAct], floor))
}

// reset empties the queue.
func (q *reqQueue) reset() {
	for b := range q.banks {
		q.banks[b] = bankQueue{head: -1, tail: -1, hit: -1, miss: -1, hitSeq: noSeq, missSeq: noSeq}
	}
	for i := range q.nodes {
		q.nodes[i].next = int32(i + 1)
	}
	q.nodes[len(q.nodes)-1].next = -1
	q.free = 0
	clear(q.pending)
	q.n = 0
	for k := range q.at {
		for b := range q.at[k] {
			q.at[k][b] = dram.TickMax
		}
		q.subMin[0][k], q.subMin[1][k] = dram.TickMax, dram.TickMax
	}
	q.oldSeq, q.oldBank = noSeq, -1
}

// bankReqs returns bank b's requests in arrival order.
func (q *reqQueue) bankReqs(b int) []queued {
	var out []queued
	for i := q.banks[b].head; i >= 0; i = q.nodes[i].next {
		out = append(out, q.nodes[i])
	}
	return out
}

// ordered returns every queued request in arrival order.
func (q *reqQueue) ordered() []queued {
	out := make([]queued, 0, q.n)
	for b := range q.banks {
		out = append(out, q.bankReqs(b)...)
	}
	slices.SortFunc(out, func(a, b queued) int { return cmp.Compare(a.seq, b.seq) })
	return out
}
