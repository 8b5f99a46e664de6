package cpu

import (
	"testing"

	"impress/internal/trace"
)

// scriptGen replays a fixed request list, then repeats the last request.
type scriptGen struct {
	reqs []trace.Request
	pos  int
}

func (g *scriptGen) Name() string { return "script" }

func (g *scriptGen) Next() trace.Request {
	if g.pos < len(g.reqs) {
		r := g.reqs[g.pos]
		g.pos++
		return r
	}
	return g.reqs[len(g.reqs)-1]
}

// fakeMem is a controllable memory system.
type fakeMem struct {
	accepts  bool
	pending  []*MemOp
	accesses int
	version  uint64
}

func (m *fakeMem) CanAccept(uint64, bool, bool) bool { return m.accepts }

// Version returns a fresh value every call: the fake cannot track which
// mutations could flip CanAccept, so cores re-evaluate every cycle.
func (m *fakeMem) Version(uint64) uint64 { m.version++; return m.version }

func (m *fakeMem) Access(op *MemOp) {
	m.accesses++
	if op.Write {
		return
	}
	m.pending = append(m.pending, op)
}

func (m *fakeMem) completeAll() {
	for _, op := range m.pending {
		op.Complete()
	}
	m.pending = nil
}

func gen(reqs ...trace.Request) *scriptGen { return &scriptGen{reqs: reqs} }

func TestComputeOnlyRetiresAtWidth(t *testing.T) {
	mem := &fakeMem{accepts: true}
	// One far-away memory op: the first 600 instructions are pure compute.
	c := New(0, DefaultConfig(), gen(trace.Request{Addr: 64, Gap: 600}), mem)
	for i := 0; i < 50; i++ {
		c.Step()
	}
	// 6-wide: 50 cycles -> up to 300 instructions; ROB can't limit here.
	if got := c.Retired(); got != 300 {
		t.Fatalf("retired %d in 50 cycles, want 300 (width 6)", got)
	}
}

func TestLoadBlocksRetirementUntilComplete(t *testing.T) {
	mem := &fakeMem{accepts: true}
	c := New(0, DefaultConfig(), gen(trace.Request{Addr: 64, Gap: 0}), mem)
	for i := 0; i < 20; i++ {
		c.Step()
	}
	// The load is at position 0 and never completes: nothing retires.
	if c.Retired() != 0 {
		t.Fatalf("retired %d with outstanding load at ROB head", c.Retired())
	}
	mem.completeAll()
	c.Step()
	if c.Retired() == 0 {
		t.Fatal("retirement did not resume after load completion")
	}
}

func TestStoresRetireWithoutWaiting(t *testing.T) {
	mem := &fakeMem{accepts: true}
	c := New(0, DefaultConfig(), gen(trace.Request{Addr: 64, Write: true, Gap: 0}), mem)
	c.Step()
	if c.Retired() == 0 {
		t.Fatal("posted store blocked retirement")
	}
}

func TestROBLimitsFetchAhead(t *testing.T) {
	cfg := DefaultConfig()
	mem := &fakeMem{accepts: true}
	// A blocking load at 0, then endless compute.
	c := New(0, cfg, gen(
		trace.Request{Addr: 64, Gap: 0},
		trace.Request{Addr: 128, Gap: 1 << 20},
	), mem)
	for i := 0; i < 500; i++ {
		c.Step()
	}
	// Fetch may run ahead at most ROBSize instructions past retirement.
	if ahead := c.fetched - c.retired; ahead > int64(cfg.ROBSize) {
		t.Fatalf("fetched %d ahead of retire, ROB is %d", ahead, cfg.ROBSize)
	}
	if c.fetched-c.retired < int64(cfg.ROBSize) {
		t.Fatalf("ROB should be full while head load blocks (ahead=%d)", c.fetched-c.retired)
	}
}

func TestMSHRLimitsOutstandingLoads(t *testing.T) {
	cfg := DefaultConfig()
	mem := &fakeMem{accepts: true}
	// Back-to-back loads, never completed.
	reqs := make([]trace.Request, 64)
	for i := range reqs {
		reqs[i] = trace.Request{Addr: uint64(i+1) * 64, Gap: 0}
	}
	c := New(0, cfg, gen(reqs...), mem)
	for i := 0; i < 100; i++ {
		c.Step()
	}
	if len(mem.pending) > cfg.MSHRs {
		t.Fatalf("%d outstanding loads exceed %d MSHRs", len(mem.pending), cfg.MSHRs)
	}
	if len(mem.pending) != cfg.MSHRs {
		t.Fatalf("MLP should fill all %d MSHRs, got %d", cfg.MSHRs, len(mem.pending))
	}
}

func TestBackpressureStallsFetch(t *testing.T) {
	mem := &fakeMem{accepts: false}
	c := New(0, DefaultConfig(), gen(trace.Request{Addr: 64, Gap: 0}), mem)
	for i := 0; i < 10; i++ {
		c.Step()
	}
	if mem.accesses != 0 {
		t.Fatal("memory op issued despite CanAccept == false")
	}
	mem.accepts = true
	c.Step()
	if mem.accesses == 0 {
		t.Fatal("memory op not issued after backpressure cleared")
	}
}

func TestMLPOverlapsLatency(t *testing.T) {
	// Two independent loads complete together: total time must be far
	// less than 2x a single load's latency (the ROB overlaps them).
	cfg := DefaultConfig()
	run := func(n int) int64 {
		mem := &fakeMem{accepts: true}
		reqs := make([]trace.Request, n+1)
		for i := 0; i < n; i++ {
			reqs[i] = trace.Request{Addr: uint64(i+1) * 64, Gap: 0}
		}
		reqs[n] = trace.Request{Addr: 1 << 20, Gap: 1 << 30} // far away
		c := New(0, cfg, gen(reqs...), mem)
		c.SetBudget(int64(n) + 10)
		cycles := int64(0)
		for !c.Finished() && cycles < 10000 {
			// Complete loads after a fixed 100-cycle latency.
			if cycles == 100 {
				mem.completeAll()
			}
			c.Step()
			cycles++
		}
		return c.FinishCycle()
	}
	one, eight := run(1), run(8)
	if eight > one+20 {
		t.Fatalf("8 parallel loads took %d cycles vs %d for 1: no MLP", eight, one)
	}
}

func TestIPCMeasurementInterval(t *testing.T) {
	mem := &fakeMem{accepts: true}
	c := New(0, DefaultConfig(), gen(trace.Request{Addr: 64, Gap: 1 << 20}), mem)
	for i := 0; i < 100; i++ {
		c.Step()
	}
	c.ResetStats()
	c.SetBudget(600)
	for !c.Finished() {
		c.Step()
	}
	// 600 instructions at width 6 = 100 cycles exactly for pure compute.
	if ipc := c.IPC(); ipc < 5.9 || ipc > 6.01 {
		t.Fatalf("IPC = %v, want ~6", ipc)
	}
}

func TestFinishedKeepsExecuting(t *testing.T) {
	mem := &fakeMem{accepts: true}
	c := New(0, DefaultConfig(), gen(trace.Request{Addr: 64, Write: true, Gap: 10}), mem)
	c.SetBudget(50)
	for i := 0; i < 100; i++ {
		c.Step()
	}
	if !c.Finished() {
		t.Fatal("budget not reached")
	}
	before := c.Retired()
	for i := 0; i < 50; i++ {
		c.Step()
	}
	if c.Retired() == before {
		t.Fatal("rate-mode core must keep executing after its budget")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Config{Width: 0, ROBSize: 1, MSHRs: 1}
	if bad.Validate() == nil {
		t.Fatal("zero width must be invalid")
	}
}
