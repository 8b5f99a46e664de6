package memctrl

import (
	"testing"
	"testing/quick"
)

func TestMapperMOPGrouping(t *testing.T) {
	m := DefaultMapper()
	// 8 consecutive lines land in the same row of the same bank/channel
	// (the Table II "Minimalist Open Page (8 lines)" property).
	base := m.Map(0)
	for i := uint64(1); i < 8; i++ {
		loc := m.Map(i * 64)
		if loc.Channel != base.Channel || loc.Bank != base.Bank || loc.Row != base.Row {
			t.Fatalf("line %d left the MOP group: %+v vs %+v", i, loc, base)
		}
		if loc.Col != base.Col+int(i) {
			t.Fatalf("line %d column = %d, want %d", i, loc.Col, base.Col+int(i))
		}
	}
	// The 9th line moves to the other channel.
	next := m.Map(8 * 64)
	if next.Channel == base.Channel {
		t.Fatalf("9th line stayed on channel %d; MOP must switch channels", base.Channel)
	}
}

func TestMapperChannelThenBankInterleave(t *testing.T) {
	m := DefaultMapper()
	groupBytes := uint64(m.MOPLines) * 64
	// Groups 0 and 1 differ in channel; groups 0 and 2 differ in bank.
	g0 := m.Map(0)
	g1 := m.Map(groupBytes)
	g2 := m.Map(2 * groupBytes)
	if g0.Channel == g1.Channel {
		t.Fatal("adjacent groups must alternate channels")
	}
	if g2.Channel != g0.Channel {
		t.Fatal("group stride of 2 must return to the same channel")
	}
	if g2.Bank != g0.Bank+1 {
		t.Fatalf("bank interleave wrong: %d -> %d", g0.Bank, g2.Bank)
	}
}

func TestMapperBijection(t *testing.T) {
	m := DefaultMapper()
	f := func(lineRaw uint32) bool {
		addr := uint64(lineRaw) * 64
		loc := m.Map(addr)
		if loc.Channel < 0 || loc.Channel >= m.Channels ||
			loc.Bank < 0 || loc.Bank >= m.BanksPerChannel ||
			loc.Col < 0 || loc.Col >= m.LinesPerRow || loc.Row < 0 {
			return false
		}
		return m.Unmap(loc) == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestMapperDistinctAddressesDistinctLocations(t *testing.T) {
	m := DefaultMapper()
	seen := make(map[Location]uint64)
	for line := uint64(0); line < 1<<14; line++ {
		loc := m.Map(line * 64)
		if prev, dup := seen[loc]; dup {
			t.Fatalf("lines %d and %d map to the same location %+v", prev, line, loc)
		}
		seen[loc] = line
	}
}

func TestMapperValidate(t *testing.T) {
	bad := DefaultMapper()
	bad.MOPLines = 7 // does not divide 128
	if bad.Validate() == nil {
		t.Fatal("expected validation error")
	}
	if err := DefaultMapper().Validate(); err != nil {
		t.Fatal(err)
	}
	odd := DefaultMapper()
	odd.BanksPerChannel = 63 // cannot split into two sub-channels
	if odd.Validate() == nil {
		t.Fatal("odd bank count must be rejected")
	}
}

// TestLineMapMatchesDivision checks the controller's compiled mapper
// against Mapper.Map's division formula over random addresses, for
// power-of-two geometries (shift-and-mask path) and others (division
// path), and that Unmap inverts it to the line address.
func TestLineMapMatchesDivision(t *testing.T) {
	geometries := []struct {
		m    Mapper
		pow2 bool
	}{
		{DefaultMapper(), true},
		{Mapper{Channels: 1, BanksPerChannel: 32, MOPLines: 4, LinesPerRow: 256}, true},
		{Mapper{Channels: 4, BanksPerChannel: 128, MOPLines: 1, LinesPerRow: 1}, true},
		{Mapper{Channels: 3, BanksPerChannel: 64, MOPLines: 8, LinesPerRow: 128}, false},
		{Mapper{Channels: 2, BanksPerChannel: 48, MOPLines: 8, LinesPerRow: 128}, false},
		{Mapper{Channels: 2, BanksPerChannel: 64, MOPLines: 8, LinesPerRow: 96}, false},
	}
	for _, g := range geometries {
		lm := newLineMap(g.m)
		if lm.pow2 != g.pow2 {
			t.Fatalf("%+v: pow2 = %v, want %v", g.m, lm.pow2, g.pow2)
		}
		f := func(addr uint64) bool {
			loc := lm.Map(addr)
			return loc == g.m.Map(addr) && g.m.Unmap(loc) == addr&^63
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
			t.Fatalf("%+v: %v", g.m, err)
		}
		for _, addr := range []uint64{0, 63, 64, 1<<40 + 12345, ^uint64(0)} {
			if !f(addr) {
				t.Fatalf("%+v: address %#x maps differently", g.m, addr)
			}
		}
	}
}

func TestMapperRowCapacity64GB(t *testing.T) {
	// Table II: 64 GB system. The highest line of a 64 GB space must map
	// to a valid row (row index fits the mapper's implied geometry).
	m := DefaultMapper()
	topAddr := uint64(64)<<30 - 64
	loc := m.Map(topAddr)
	// 64 GB / (2 ch x 64 banks x 8 KB rows) = 65536 rows per bank.
	if loc.Row >= 65536 {
		t.Fatalf("row %d exceeds the 64Ki rows/bank of the Table II system", loc.Row)
	}
}
