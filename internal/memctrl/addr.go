// Package memctrl implements the DDR5 memory controller of the paper's
// baseline system (Table II): per-channel read/write queues with FR-FCFS
// scheduling, an open-page policy with Minimalist Open Page (MOP-8)
// address mapping, all-bank refresh, RFM issuing for in-DRAM trackers, and
// the Row-Press defense hook points (tracker feeding via core.BankPolicy
// events, tMRO enforcement for ExPress, victim-refresh mitigations).
package memctrl

import (
	"fmt"
	"math/bits"
)

// Location identifies where a cache line lives in the memory system.
type Location struct {
	Channel int
	Bank    int // bank within the channel (sub-channel folded into bank index)
	Row     int64
	Col     int // column in cache-line units within the row
}

// Mapper implements Minimalist Open Page (MOP) interleaving: 8 consecutive
// cache lines map to one row, then the stream moves to the next channel;
// banks rotate next, so sequential streams spread across all banks while
// each row receives exactly one burst of 8 line accesses per pass — the
// Table II configuration ("Minimalist Open Page (8 lines)").
type Mapper struct {
	Channels        int
	BanksPerChannel int
	MOPLines        int // consecutive lines per row visit (8)
	LinesPerRow     int // row size in lines (8 KB row / 64 B line = 128)
}

// DefaultMapper returns the Table II mapping: 2 channels, 64 banks per
// channel (32 banks x 2 sub-channels), MOP-8, 8 KB rows.
func DefaultMapper() Mapper {
	return Mapper{Channels: 2, BanksPerChannel: 64, MOPLines: 8, LinesPerRow: 128}
}

// Validate checks mapper parameters.
func (m Mapper) Validate() error {
	switch {
	case m.Channels <= 0 || m.BanksPerChannel <= 0:
		return fmt.Errorf("memctrl: non-positive geometry: %+v", m)
	case m.BanksPerChannel%2 != 0:
		// The banks split evenly into two sub-channels
		// (dram.Channel.SubChannel).
		return fmt.Errorf("memctrl: odd bank count %d cannot split into two sub-channels",
			m.BanksPerChannel)
	case m.MOPLines <= 0 || m.LinesPerRow <= 0:
		return fmt.Errorf("memctrl: non-positive row geometry: %+v", m)
	case m.LinesPerRow%m.MOPLines != 0:
		return fmt.Errorf("memctrl: row lines %d not divisible by MOP group %d",
			m.LinesPerRow, m.MOPLines)
	}
	return nil
}

// Map translates a physical byte address to its DRAM location.
func (m Mapper) Map(addr uint64) Location {
	line := addr / 64
	mopOff := int(line) % m.MOPLines
	grp := line / uint64(m.MOPLines)

	channel := int(grp % uint64(m.Channels))
	grp /= uint64(m.Channels)

	bank := int(grp % uint64(m.BanksPerChannel))
	grp /= uint64(m.BanksPerChannel)

	groupsPerRow := uint64(m.LinesPerRow / m.MOPLines)
	colGroup := int(grp % groupsPerRow)
	row := int64(grp / groupsPerRow)

	return Location{
		Channel: channel,
		Bank:    bank,
		Row:     row,
		Col:     colGroup*m.MOPLines + mopOff,
	}
}

// Unmap is the inverse of Map, reconstructing the byte address of the
// first byte of the line at the given location. It is used by tests to
// verify the mapping is a bijection.
func (m Mapper) Unmap(loc Location) uint64 {
	groupsPerRow := uint64(m.LinesPerRow / m.MOPLines)
	grp := uint64(loc.Row)*groupsPerRow + uint64(loc.Col/m.MOPLines)
	grp = grp*uint64(m.BanksPerChannel) + uint64(loc.Bank)
	grp = grp*uint64(m.Channels) + uint64(loc.Channel)
	line := grp*uint64(m.MOPLines) + uint64(loc.Col%m.MOPLines)
	return line * 64
}

// lineMap is a Mapper compiled once per controller. When every geometry
// field is a power of two, Map's divisions and remainders become shifts
// and masks; any other geometry keeps Mapper.Map's division path.
type lineMap struct {
	m    Mapper
	pow2 bool

	mopShift, chShift, bankShift, grpShift uint
	mopMask, chMask, bankMask, grpMask     uint64
}

func newLineMap(m Mapper) lineMap {
	groupsPerRow := m.LinesPerRow / m.MOPLines
	lm := lineMap{m: m}
	for _, v := range []int{m.MOPLines, m.Channels, m.BanksPerChannel, groupsPerRow} {
		if v <= 0 || v&(v-1) != 0 {
			return lm
		}
	}
	lm.pow2 = true
	lm.mopShift, lm.mopMask = log2(m.MOPLines)
	lm.chShift, lm.chMask = log2(m.Channels)
	lm.bankShift, lm.bankMask = log2(m.BanksPerChannel)
	lm.grpShift, lm.grpMask = log2(groupsPerRow)
	return lm
}

// log2 returns the shift and mask of a power of two v.
func log2(v int) (uint, uint64) {
	return uint(bits.TrailingZeros64(uint64(v))), uint64(v) - 1
}

// Map is Mapper.Map, by shifts and masks when the geometry allows.
func (lm *lineMap) Map(addr uint64) Location {
	if !lm.pow2 {
		return lm.m.Map(addr)
	}
	line := addr / 64
	mopOff := int(line & lm.mopMask)
	grp := line >> lm.mopShift
	channel := int(grp & lm.chMask)
	grp >>= lm.chShift
	bank := int(grp & lm.bankMask)
	grp >>= lm.bankShift
	return Location{
		Channel: channel,
		Bank:    bank,
		Row:     int64(grp >> lm.grpShift),
		Col:     int(grp&lm.grpMask)<<lm.mopShift + mopOff,
	}
}
