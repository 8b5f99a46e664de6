// Package dram models a DDR5 DRAM device at command-level cycle accuracy:
// per-bank state machines with JEDEC timing enforcement (Table I of the
// ImPress paper), an all-bank refresh engine with refresh postponement, and
// Refresh Management (RFM) support for in-DRAM Rowhammer trackers.
//
// The package is the substrate equivalent of the DRAMSim3 configuration the
// paper uses; the memory controller that drives it lives in
// internal/memctrl.
package dram

import (
	"fmt"
	"math"
)

// Tick is the global simulation time unit: 125 picoseconds.
//
// One 4 GHz CPU cycle is exactly 2 ticks and one 2.66 GHz DRAM cycle is
// exactly 3 ticks, so both clock domains advance in integer ticks and no
// floating-point time arithmetic is needed anywhere in the simulator.
type Tick int64

// TickMax is the "never" horizon returned by NextEvent-style queries when
// a component has no self-scheduled future state change (it only reacts
// to external commands).
const TickMax = Tick(math.MaxInt64)

// Clock-domain and unit conversions.
const (
	TicksPerNs        = 8 // 1 ns = 8 ticks of 125 ps
	TicksPerCPUCycle  = 2 // 4 GHz
	TicksPerDRAMCycle = 3 // 2.66 GHz (375 ps); tRC = 48 ns = 128 DRAM cycles
)

// Ns converts nanoseconds to ticks.
func Ns(ns int64) Tick { return Tick(ns * TicksPerNs) }

// Us converts microseconds to ticks.
func Us(us int64) Tick { return Ns(us * 1000) }

// Ms converts milliseconds to ticks.
func Ms(ms int64) Tick { return Us(ms * 1000) }

// ToNs converts a tick count to (truncated) nanoseconds.
func (t Tick) ToNs() int64 { return int64(t) / TicksPerNs }

// DRAMCycles converts a tick count to (truncated) DRAM cycles.
func (t Tick) DRAMCycles() int64 { return int64(t) / TicksPerDRAMCycle }

// CPUCycles converts a tick count to (truncated) CPU cycles.
func (t Tick) CPUCycles() int64 { return int64(t) / TicksPerCPUCycle }

// Timings holds the DDR5 timing parameters used by the bank state machines.
// All values are in ticks. The defaults come straight from Table I of the
// paper; column timings that Table I omits (tCAS, tCCD) use representative
// DDR5 values and are documented as such.
type Timings struct {
	TACT   Tick // time to perform an activation (tRCD): ACT -> column command
	TPRE   Tick // time to precharge an open row (tRP): PRE -> ACT
	TRAS   Tick // minimum time a row must be kept open: ACT -> PRE
	TRC    Tick // minimum time between successive ACTs to a bank
	TREFW  Tick // refresh window: every row refreshed once per tREFW
	TREFI  Tick // time between successive REF commands
	TRFC   Tick // execution time of a REF command (banks busy)
	TRFM   Tick // execution time of an RFM command (paper: tRFC/2 = 205 ns)
	TONMax Tick // max time a row may stay open per DDR5 (9 tREFI postponed)

	// Column-access timings (not in Table I; representative DDR5 values).
	TCAS   Tick // column command to first data beat
	TBurst Tick // data-bus occupancy of one 64 B transfer on a sub-channel

	// Activation-rate constraints (not in Table I; representative values).
	TFAW Tick // four-activate window per sub-channel (max 4 ACTs per tFAW)
	TRRD Tick // minimum ACT-to-ACT spacing across banks of a sub-channel

	// MaxPostponed is how many REF commands may be postponed (DDR5: 4,
	// so a row can stay open up to 5 tREFI; DDR4: 8, up to 9 tREFI).
	MaxPostponed int
}

// DDR5 returns the paper's Table I timing set.
func DDR5() Timings {
	return Timings{
		TACT:         Ns(12),
		TPRE:         Ns(12),
		TRAS:         Ns(36),
		TRC:          Ns(48),
		TREFW:        Ms(32),
		TREFI:        Ns(3900),
		TRFC:         Ns(350),
		TRFM:         Ns(205),
		TONMax:       Ns(19500), // 19.5 us (5 x tREFI with max postponement)
		TCAS:         Ns(14),
		TBurst:       Ns(3),
		TFAW:         Ns(40),
		TRRD:         Ns(5),
		MaxPostponed: 4,
	}
}

// Validate checks internal consistency of the timing set.
func (t Timings) Validate() error {
	switch {
	case t.TACT <= 0 || t.TPRE <= 0 || t.TRAS <= 0 || t.TRC <= 0:
		return fmt.Errorf("dram: non-positive core timing: %+v", t)
	case t.TRAS+t.TPRE > t.TRC:
		return fmt.Errorf("dram: tRAS+tPRE (%d) exceeds tRC (%d)", t.TRAS+t.TPRE, t.TRC)
	case t.TREFI <= 0 || t.TRFC <= 0 || t.TREFW <= 0:
		return fmt.Errorf("dram: non-positive refresh timing")
	case t.TRFC >= t.TREFI:
		return fmt.Errorf("dram: tRFC (%d) must be below tREFI (%d)", t.TRFC, t.TREFI)
	case t.TONMax < t.TRAS:
		return fmt.Errorf("dram: tONMax below tRAS")
	case t.TCAS <= 0 || t.TBurst <= 0:
		return fmt.Errorf("dram: non-positive column timing")
	case t.TFAW <= 0 || t.TRRD <= 0:
		return fmt.Errorf("dram: non-positive activation-rate timing")
	case t.TRRD > t.TFAW:
		return fmt.Errorf("dram: tRRD (%d) exceeds tFAW (%d)", t.TRRD, t.TFAW)
	case t.MaxPostponed < 0:
		return fmt.Errorf("dram: negative refresh postponement")
	case t.TONMax > Tick(t.MaxPostponed+1)*t.TREFI:
		return fmt.Errorf("dram: tONMax %d exceeds the postponement window %d",
			t.TONMax, Tick(t.MaxPostponed+1)*t.TREFI)
	}
	return nil
}

// RefreshesPerWindow returns the number of REF commands per tREFW
// (8192 groups in the JEDEC standard; derived here from the timings).
func (t Timings) RefreshesPerWindow() int64 {
	return int64(t.TREFW / t.TREFI)
}

// ActsPerRefreshWindow returns the maximum number of activations a single
// bank can receive within one refresh window, which bounds the work any
// tracker must absorb between counter resets.
func (t Timings) ActsPerRefreshWindow() int64 {
	return int64(t.TREFW / t.TRC)
}
