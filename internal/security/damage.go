package security

import "impress/internal/trackers"

// The harness's per-victim damage store. Damage accrues on the four
// victims of every access, so a hashed row -> damage map costs about a
// dozen map operations per access. Instead, rows live in fixed pages of
// pageRows consecutive float64 cells. A page is found by its page number
// (row >> pageBits, an arithmetic shift, so negative rows — the victims
// of rows 0 and 1 — get negative page numbers) through a map, fronted by
// a small cache of the pages used last. An aggressor's window, rows
// aggressor±BlastRadius, touches at most two adjacent pages; aggressor
// row 1 spans pages −1 and 0. A pattern that alternates such an
// aggressor with decoys keeps three pages live, so the cache holds four
// (least recently used out): nearly every access then finds its pages
// without hashing. Rows may be sparse and anywhere in int64: only the
// pages actually touched are allocated.

const (
	pageBits = 6
	pageRows = 1 << pageBits
	// windowRows is an aggressor's window: its victims and, in the
	// middle, the aggressor itself.
	windowRows = 2*trackers.BlastRadius + 1
)

type damagePage [pageRows]float64

type damageTable struct {
	index map[int64]*damagePage // page number -> page
	pages []*damagePage         // every page, for the window reset

	cache [4]struct {
		num  int64
		page *damagePage
		used uint64 // clock value at the last hit
	}
	clock uint64
}

// page returns page number num, allocating it on first use.
func (t *damageTable) page(num int64) *damagePage {
	t.clock++
	for i := range t.cache {
		if c := &t.cache[i]; c.page != nil && c.num == num {
			c.used = t.clock
			return c.page
		}
	}
	p := t.index[num]
	if p == nil {
		p = new(damagePage)
		t.index[num] = p
		t.pages = append(t.pages, p)
	}
	lru := &t.cache[0]
	for i := range t.cache {
		if t.cache[i].used < lru.used {
			lru = &t.cache[i]
		}
	}
	lru.num, lru.page, lru.used = num, p, t.clock
	return p
}

// window returns the damage cells of rows aggressor−BlastRadius …
// aggressor+BlastRadius in row order, split at a page edge: lo runs from
// the first row to the end of the window or of its page, and hi holds
// the rest (empty unless the window crosses into the next page).
func (t *damageTable) window(aggressor int64) (lo, hi []float64) {
	first := aggressor - trackers.BlastRadius
	num, off := first>>pageBits, int(first&(pageRows-1))
	p := t.page(num)
	if end := off + windowRows; end <= pageRows {
		return p[off:end], nil
	}
	return p[off:], t.page(num + 1)[:off+windowRows-pageRows]
}

// addVictims adds d to the damage of each victim of aggressor and
// returns the largest victim damage after the addition.
func (t *damageTable) addVictims(aggressor int64, d float64) float64 {
	lo, hi := t.window(aggressor)
	peak := 0.0
	for i := range lo {
		if i != trackers.BlastRadius {
			v := lo[i] + d
			lo[i] = v
			if v > peak {
				peak = v
			}
		}
	}
	for i := range hi {
		if len(lo)+i != trackers.BlastRadius {
			v := hi[i] + d
			hi[i] = v
			if v > peak {
				peak = v
			}
		}
	}
	return peak
}

// clearVictims zeroes the damage of each victim of aggressor: a
// mitigation refreshed them.
func (t *damageTable) clearVictims(aggressor int64) {
	lo, hi := t.window(aggressor)
	for i := range lo {
		if i != trackers.BlastRadius {
			lo[i] = 0
		}
	}
	for i := range hi {
		if len(lo)+i != trackers.BlastRadius {
			hi[i] = 0
		}
	}
}

// reset zeroes every row: the tREFW boundary, when the refresh sweep has
// restored all victims.
func (t *damageTable) reset() {
	for _, p := range t.pages {
		*p = damagePage{}
	}
}
