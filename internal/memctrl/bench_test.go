package memctrl

import (
	"testing"

	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/trackers"
)

// BenchmarkControllerStreamTick measures one controller Tick under the
// queue shape of a QuickScale STREAM run: ImPress-N with a Graphene
// tracker per bank, channel 0's read queue held about 60 deep by 12
// sequential streams, one per bank. ns/op is the cost of one Tick.
func BenchmarkControllerStreamTick(b *testing.B) {
	const depth, streams = 60, 12
	design := core.NewDesign(core.ImpressN)
	trh := design.TrackerTRH(4000)
	c := New(DefaultConfig(design, func(int) trackers.Tracker { return trackers.NewGraphene(trh) }, 80))
	m := c.cfg.Mapper
	// Stream k walks bank 5k's rows line by line (MOP-8 groups of the
	// same row arrive back to back, as a sequential core fetches them).
	next := make([]int, streams)
	k := 0
	push := func(now dram.Tick) {
		for ; c.PendingReads() < depth; k = (k + 1) % streams {
			i := next[k]
			next[k]++
			loc := Location{Channel: 0, Bank: 5 * k % m.BanksPerChannel, Row: int64(i / m.LinesPerRow), Col: i % m.LinesPerRow}
			addr := m.Unmap(loc)
			c.Push(now, &Request{Addr: addr, Loc: c.Map(addr)})
		}
	}
	now := dram.Tick(0)
	for i := 0; i < 20000; i++ { // past the cold start
		push(now)
		c.Tick(now)
		now += dram.TicksPerDRAMCycle
	}
	reads := c.Stats().Reads
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(now)
		c.Tick(now)
		now += dram.TicksPerDRAMCycle
	}
	b.StopTimer()
	b.ReportMetric(float64(c.Stats().Reads-reads)/float64(b.N), "reads/tick")
}
