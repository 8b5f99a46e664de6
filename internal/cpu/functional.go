package cpu

// FunctionalAdvance consumes n instructions from the core's trace stream
// without simulating timing: plain instructions are skipped wholesale and
// every memory operation in the window is reported to touch (for
// functional cache warming) but never issued to the memory system. The
// core must be quiesced first — no outstanding reads, every ROB op
// complete — which the sampled clock guarantees by force-completing
// in-flight operations before fast-forwarding; the completed-but-not-yet
// -retired ops are absorbed here (their positions are before the target).
// Cycles do not advance: the skipped instructions take zero simulated
// time, which is exactly the approximation ClockSampled documents.
func (c *Core) FunctionalAdvance(n int64, touch func(addr uint64, write, uncached bool)) {
	if c.outstanding != 0 {
		panic("cpu: FunctionalAdvance with outstanding reads")
	}
	for i := 0; i < c.robLen; i++ {
		if !c.ROBOp(i).Done {
			panic("cpu: FunctionalAdvance with an incomplete ROB op")
		}
	}
	c.robHead, c.robLen = 0, 0
	target := c.fetched + n
	for {
		if !c.havePeek {
			c.peek()
		}
		if c.nextMemPos >= target {
			break
		}
		touch(c.nextMem.Addr, c.nextMem.Write, c.nextMem.Uncached)
		c.fetched = c.nextMemPos + 1 // the access counts as one instruction
		c.havePeek = false
	}
	c.fetched = target
	c.retired = target
	c.invalidateHint()
}
