package cache

import (
	"testing"
	"testing/quick"
)

func small() Config { return Config{SizeBytes: 8 * 1024, Ways: 4, LineSize: 64} } // 32 sets

func TestDefaultConfigTableII(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.SizeBytes != 16<<20 || cfg.Ways != 16 || cfg.LineSize != 64 {
		t.Fatalf("default config %+v does not match Table II", cfg)
	}
	c := New(cfg)
	if len(c.lines)/int(c.ways) != 16384 {
		t.Fatalf("sets = %d, want 16384", len(c.lines)/int(c.ways))
	}
}

func TestValidateRejectsBroken(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Ways: 4, LineSize: 64},
		{SizeBytes: 8192, Ways: 4, LineSize: 48},  // not power of two
		{SizeBytes: 8192, Ways: 3, LineSize: 64},  // 8192/(3*64) not integral... actually 42.67
		{SizeBytes: 12288, Ways: 4, LineSize: 64}, // 48 sets: not a power of two
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("config %d should be invalid: %+v", i, cfg)
		}
	}
}

func TestHitAfterFill(t *testing.T) {
	c := New(small())
	if c.Access(0x1000, false) {
		t.Fatal("cold cache cannot hit")
	}
	c.Fill(0x1000, false)
	if !c.Access(0x1000, false) {
		t.Fatal("filled line must hit")
	}
	if !c.Contains(0x1000) {
		t.Fatal("Contains must see the line")
	}
	if c.Contains(0x2000) {
		t.Fatal("Contains must not see absent lines")
	}
}

func TestDirtyWriteback(t *testing.T) {
	cfg := small()
	c := New(cfg)
	setStride := uint64(32 * 64) // same set every stride
	// Fill one set completely with dirty lines.
	for i := uint64(0); i < 4; i++ {
		c.Fill(i*setStride, true)
	}
	// One more fill to the same set must evict a dirty victim.
	v, evicted := c.Fill(4*setStride, false)
	if !evicted {
		t.Fatal("full set must evict")
	}
	if !v.Dirty {
		t.Fatal("victim must be dirty")
	}
	if v.Addr%setStride != 0 {
		t.Fatalf("victim address %x not one of the inserted lines", v.Addr)
	}
	if c.writebacks != 1 {
		t.Fatalf("writebacks = %d", c.writebacks)
	}
}

func TestSRRIPPromotionProtectsHotLine(t *testing.T) {
	cfg := small()
	c := New(cfg)
	setStride := uint64(32 * 64)
	hot := uint64(0)
	c.Fill(hot, false)
	for i := uint64(1); i < 4; i++ {
		c.Fill(i*setStride, false)
	}
	// Touch the hot line so its RRPV promotes to 0.
	c.Access(hot, false)
	// Two conflicting fills: the hot line must survive both.
	c.Fill(4*setStride, false)
	c.Fill(5*setStride, false)
	if !c.Contains(hot) {
		t.Fatal("SRRIP evicted the recently promoted line before distant ones")
	}
}

func TestFillIdempotentWhenPresent(t *testing.T) {
	c := New(small())
	c.Fill(0x40, false)
	v, evicted := c.Fill(0x40, true) // merge: marks dirty, no eviction
	if evicted {
		t.Fatalf("duplicate fill evicted %+v", v)
	}
	ev := c.evictions
	if ev != 0 {
		t.Fatalf("evictions = %d", ev)
	}
}

func TestWriteMarksDirtyOnHit(t *testing.T) {
	cfg := small()
	c := New(cfg)
	setStride := uint64(32 * 64)
	c.Fill(0, false)
	c.Access(0, true) // write hit: line becomes dirty
	for i := uint64(1); i < 4; i++ {
		c.Fill(i*setStride, false)
	}
	// Evict everything; at least the written line must come out dirty.
	dirtyEvicted := false
	for i := uint64(4); i < 12; i++ {
		if v, ev := c.Fill(i*setStride, false); ev && v.Dirty && v.Addr == 0 {
			dirtyEvicted = true
		}
	}
	if !dirtyEvicted {
		t.Fatal("write-hit line was not evicted dirty")
	}
}

func TestHitRateAccounting(t *testing.T) {
	c := New(small())
	c.Access(0, false) // miss
	c.Fill(0, false)
	c.Access(0, false) // hit
	c.Access(0, false) // hit
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d", c.Hits(), c.Misses())
	}
	if hr := c.HitRate(); hr < 0.66 || hr > 0.67 {
		t.Fatalf("hit rate %v", hr)
	}
}

// Property: after Fill(addr), Contains(addr) is always true, and the
// number of resident lines never exceeds capacity.
func TestFillContainsProperty(t *testing.T) {
	cfg := small()
	capacity := cfg.SizeBytes / cfg.LineSize
	f := func(addrs []uint16) bool {
		c := New(cfg)
		resident := map[uint64]bool{}
		for _, a := range addrs {
			addr := uint64(a) * 64
			if !c.Access(addr, false) {
				if v, ev := c.Fill(addr, false); ev {
					delete(resident, v.Addr)
				}
			}
			resident[addr] = true
			if !c.Contains(addr) {
				return false
			}
		}
		return len(resident) <= capacity+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: distinct sets never interfere — filling set A evicts nothing
// from set B.
func TestSetIsolation(t *testing.T) {
	cfg := small()
	c := New(cfg)
	other := uint64(64) // set 1
	c.Fill(other, false)
	setStride := uint64(32 * 64)
	for i := uint64(0); i < 64; i++ {
		c.Fill(i*setStride, false) // hammer set 0
	}
	if !c.Contains(other) {
		t.Fatal("set 0 pressure evicted a set-1 line")
	}
}
