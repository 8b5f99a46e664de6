// Package cache implements the shared last-level cache of the paper's
// baseline system (Table II): 16 MB, 16-way, 64 B lines, SRRIP
// replacement, with MSHR-based miss handling and writeback of dirty
// victims.
package cache

import "fmt"

// Config sizes an LLC.
type Config struct {
	SizeBytes int
	Ways      int
	LineSize  int
}

// DefaultConfig returns the Table II LLC: 16 MB, 16-way, 64 B lines.
func DefaultConfig() Config {
	return Config{SizeBytes: 16 << 20, Ways: 16, LineSize: 64}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.Ways <= 0 || c.LineSize <= 0:
		return fmt.Errorf("cache: non-positive parameter: %+v", c)
	case c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache: line size %d not a power of two", c.LineSize)
	case c.SizeBytes%(c.Ways*c.LineSize) != 0:
		return fmt.Errorf("cache: size %d not divisible into %d ways of %dB lines",
			c.SizeBytes, c.Ways, c.LineSize)
	}
	sets := c.SizeBytes / (c.Ways * c.LineSize)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// SRRIP constants: 2-bit re-reference prediction values.
const (
	rrpvBits    = 2
	rrpvMax     = 1<<rrpvBits - 1 // 3: distant re-reference (eviction candidate)
	rrpvInsert  = rrpvMax - 1     // 2: long re-reference on insertion
	rrpvPromote = 0               // near-immediate on hit
)

// line is one cache line packed into a word: the tag in the high 60
// bits, then a dirty bit, a valid bit, and the 2-bit RRPV in the low
// bits. Packing matters at construction time as much as lookup time —
// the 16 MB default config holds 256 K lines, and a one-word line
// quarters the memory the runtime must zero per simulator and keeps a
// whole set inside two cache lines.
type line = uint64

const (
	lineRRPVMask line = rrpvMax
	lineValid    line = 1 << rrpvBits
	lineDirty    line = 1 << (rrpvBits + 1)
	lineTagShift      = rrpvBits + 2
)

func packLine(tag uint64, dirty bool, rrpv line) line {
	l := line(tag)<<lineTagShift | lineValid | rrpv
	if dirty {
		l |= lineDirty
	}
	return l
}

// Victim describes a line evicted by a fill.
type Victim struct {
	Addr  uint64
	Dirty bool
}

// Cache is a set-associative SRRIP cache. It is purely a state container:
// timing lives in the simulator.
type Cache struct {
	cfg       Config
	lines     []line // flat: set i occupies lines[i*ways : (i+1)*ways]
	ways      uint64
	setMask   uint64
	setBits   uint
	lineShift uint

	hits, misses, evictions, writebacks uint64
}

// New builds an LLC; panics on invalid configuration (static input).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / (cfg.Ways * cfg.LineSize)
	c := &Cache{
		cfg:     cfg,
		lines:   make([]line, numSets*cfg.Ways),
		ways:    uint64(cfg.Ways),
		setMask: uint64(numSets - 1),
	}
	for ls := cfg.LineSize; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	for m := c.setMask; m > 0; m >>= 1 {
		c.setBits++
	}
	return c
}

// set returns the ways of set idx.
func (c *Cache) set(idx uint64) []line {
	return c.lines[idx*c.ways : (idx+1)*c.ways]
}

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	lineAddr := addr >> c.lineShift
	return lineAddr & c.setMask, lineAddr >> c.setBits
}

// Access looks up addr; on hit the line is promoted (and marked dirty for
// writes). It returns true on hit. On miss, no state changes: the caller
// is expected to Fill once the memory system returns data.
//
//impress:hotpath
func (c *Cache) Access(addr uint64, write bool) bool {
	set, tag := c.index(addr)
	key := line(tag)<<lineTagShift | lineValid
	lines := c.set(set)
	for i := range lines {
		if lines[i]>>lineTagShift == line(tag) && lines[i]&lineValid != 0 {
			lines[i] = key | lines[i]&lineDirty | rrpvPromote
			if write {
				lines[i] |= lineDirty
			}
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// Contains reports whether addr is present without touching replacement
// state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	for _, l := range c.set(set) {
		if l>>lineTagShift == line(tag) && l&lineValid != 0 {
			return true
		}
	}
	return false
}

// Fill inserts addr (after a miss) using SRRIP replacement and returns the
// evicted victim, if any. write marks the new line dirty immediately.
func (c *Cache) Fill(addr uint64, write bool) (Victim, bool) {
	set, tag := c.index(addr)
	lines := c.set(set)
	// Already present (a racing fill merged): just update.
	for i := range lines {
		if lines[i]>>lineTagShift == line(tag) && lines[i]&lineValid != 0 {
			if write {
				lines[i] |= lineDirty
			}
			return Victim{}, false
		}
	}
	// Find an invalid way first.
	for i := range lines {
		if lines[i]&lineValid == 0 {
			lines[i] = packLine(tag, write, rrpvInsert)
			return Victim{}, false
		}
	}
	// SRRIP: evict the first line with RRPV == max, aging until found.
	for {
		for i := range lines {
			if lines[i]&lineRRPVMask == rrpvMax {
				v := Victim{
					Addr:  c.lineAddr(set, uint64(lines[i]>>lineTagShift)),
					Dirty: lines[i]&lineDirty != 0,
				}
				lines[i] = packLine(tag, write, rrpvInsert)
				c.evictions++
				if v.Dirty {
					c.writebacks++
				}
				return v, true
			}
		}
		// All RRPVs are below max here, so the +1 stays within the
		// 2-bit field.
		for i := range lines {
			lines[i]++
		}
	}
}

func (c *Cache) lineAddr(set, tag uint64) uint64 {
	return ((tag << c.setBits) | set) << c.lineShift
}

// Hits returns the hit count.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the miss count.
func (c *Cache) Misses() uint64 { return c.misses }

// HitRate returns hits/(hits+misses), or 0 with no accesses.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
