package memctrl

import (
	"cmp"
	"math"
	"slices"

	"impress/internal/dram"
)

// bankSet is a bitmap of bank indices. Hot loops walk it in ascending
// bank order with bits.TrailingZeros64 over each word.
type bankSet []uint64

func newBankSet(banks int) bankSet { return make(bankSet, (banks+63)/64) }

func (s bankSet) add(b int)    { s[b>>6] |= 1 << (b & 63) }
func (s bankSet) remove(b int) { s[b>>6] &^= 1 << (b & 63) }

// queued is one demand request held by value in its bank's list.
type queued struct {
	addr   uint64
	row    int64
	col    int
	seq    uint64 // arrival order within the queue
	arrive dram.Tick
}

// noSeq is the sequence number of an absent candidate; it compares
// younger than every queued request.
const noSeq = math.MaxUint64

// bankQueue is one bank's share of a demand queue in arrival order, with
// its two FR-FCFS candidates cached: hit indexes the oldest request on
// the bank's open row and miss the oldest one that is not (every request
// misses a closed bank), -1 when there is none. hitSeq and missSeq are
// their sequence numbers (noSeq when absent), kept here so a scheduling
// pass reads this struct and not the list. The bank's oldest request is
// whichever candidate is older. All four are refreshed when the list or
// the bank's row state changes.
type bankQueue struct {
	reqs            []queued
	hit, miss       int
	hitSeq, missSeq uint64
}

// refresh recomputes the candidates against the bank's row state.
func (bq *bankQueue) refresh(open bool, openRow int64) {
	bq.hit, bq.miss = -1, -1
	bq.hitSeq, bq.missSeq = noSeq, noSeq
	if !open {
		if len(bq.reqs) > 0 {
			bq.miss, bq.missSeq = 0, bq.reqs[0].seq
		}
		return
	}
	for i := range bq.reqs {
		if bq.reqs[i].row == openRow {
			if bq.hit < 0 {
				bq.hit, bq.hitSeq = i, bq.reqs[i].seq
			}
		} else if bq.miss < 0 {
			bq.miss, bq.missSeq = i, bq.reqs[i].seq
		}
		if bq.hit >= 0 && bq.miss >= 0 {
			return
		}
	}
}

// reqQueue is one channel's read or write queue, indexed by bank.
type reqQueue struct {
	banks   []bankQueue
	pending bankSet // banks with queued requests
	n       int
	nextSeq uint64
}

func newReqQueue(banks int) reqQueue {
	q := reqQueue{banks: make([]bankQueue, banks), pending: newBankSet(banks)}
	for b := range q.banks {
		q.banks[b].refresh(false, 0)
	}
	return q
}

// push appends r to bank b's list and updates the bank's candidates
// incrementally.
func (q *reqQueue) push(b int, r queued, open bool, openRow int64) {
	r.seq = q.nextSeq
	q.nextSeq++
	bq := &q.banks[b]
	i := len(bq.reqs)
	bq.reqs = append(bq.reqs, r)
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

// remove deletes the i-th request of bank b's list.
func (q *reqQueue) remove(b, i int, open bool, openRow int64) {
	bq := &q.banks[b]
	bq.reqs = append(bq.reqs[:i], bq.reqs[i+1:]...)
	if len(bq.reqs) == 0 {
		q.pending.remove(b)
	}
	q.n--
	bq.refresh(open, openRow)
}

// reset empties the queue.
func (q *reqQueue) reset() {
	for b := range q.banks {
		bq := &q.banks[b]
		bq.reqs = bq.reqs[:0]
		bq.refresh(false, 0)
	}
	clear(q.pending)
	q.n = 0
}

// ordered returns every queued request in arrival order.
func (q *reqQueue) ordered() []queued {
	out := make([]queued, 0, q.n)
	for b := range q.banks {
		out = append(out, q.banks[b].reqs...)
	}
	slices.SortFunc(out, func(a, b queued) int { return cmp.Compare(a.seq, b.seq) })
	return out
}
