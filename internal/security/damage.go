package security

import "impress/internal/trackers"

// The harness's per-victim damage store. Damage accrues on the four
// victims of every access, so a hashed row -> damage map costs about a
// dozen map operations per access. Instead, rows live in fixed pages of
// pageRows consecutive float64 cells. A page is found by its page number
// (row >> pageBits, an arithmetic shift, so negative rows — the victims
// of rows 0 and 1 — get negative page numbers) through a map, fronted by
// a cache of the last page used. An aggressor's victims span rows
// aggressor±BlastRadius, which touch at most two adjacent pages, so an
// access makes at most one map lookup unless it straddles a page edge or
// moves to a new page. Rows may be sparse and anywhere in int64: only the
// pages actually touched are allocated.

const (
	pageBits = 6
	pageRows = 1 << pageBits
)

type damagePage [pageRows]float64

type damageTable struct {
	index map[int64]*damagePage // page number -> page
	pages []*damagePage         // every page, for the window reset

	lastNum  int64
	lastPage *damagePage
}

// page returns the page holding row, allocating it on first use.
func (t *damageTable) page(row int64) *damagePage {
	num := row >> pageBits
	if t.lastPage != nil && num == t.lastNum {
		return t.lastPage
	}
	p := t.index[num]
	if p == nil {
		p = new(damagePage)
		t.index[num] = p
		t.pages = append(t.pages, p)
	}
	t.lastNum, t.lastPage = num, p
	return p
}

// victims returns a pointer to the damage cell of each victim of
// aggressor, in trackers.VictimsOf order. The pointers stay valid for the
// table's lifetime (pages never move).
func (t *damageTable) victims(aggressor int64) (cells [2 * trackers.BlastRadius]*float64) {
	first := aggressor - trackers.BlastRadius
	base := first &^ (pageRows - 1) // first row of first's page
	lo := t.page(first)
	var hi *damagePage
	for i, v := range trackers.VictimsOf(aggressor) {
		off := v - base // in [0, pageRows+2*BlastRadius)
		if off < pageRows {
			cells[i] = &lo[off]
			continue
		}
		if hi == nil {
			hi = t.page(base + pageRows)
		}
		cells[i] = &hi[off-pageRows]
	}
	return cells
}

// reset zeroes every row: the tREFW boundary, when the refresh sweep has
// restored all victims.
func (t *damageTable) reset() {
	for _, p := range t.pages {
		*p = damagePage{}
	}
}
