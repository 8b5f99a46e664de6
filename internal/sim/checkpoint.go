package sim

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"impress/internal/cache"
	"impress/internal/cpu"
	"impress/internal/dram"
	"impress/internal/errs"
	"impress/internal/memctrl"
)

// Checkpoint envelope: a 7-byte magic, one version byte, then a
// flate-compressed JSON body. The binary envelope keeps version skew
// detectable before any JSON parsing, and the compression keeps the
// dominant payload — the packed LLC line array — at on-disk size.
const (
	checkpointMagic   = "IMPCKPT"
	CheckpointVersion = 1

	// maxCheckpointBody caps the decompressed body so a corrupt or
	// hostile length field cannot balloon memory (the fuzz harness
	// exercises this).
	maxCheckpointBody = 128 << 20
)

// OpRef identifies an in-flight memory operation by its core and ROB
// position. Every operation the memory hierarchy still references (MSHR
// waiters, queued LLC-hit completions) is live in its core's ROB — an op
// leaves the ROB only once Done and retired — so the pair is a complete
// and stable address.
type OpRef struct {
	Core  int `json:"core"`
	Index int `json:"index"`
}

// MSHRSnapshot is one outstanding line fetch.
type MSHRSnapshot struct {
	Line     uint64  `json:"line"`
	Dirty    bool    `json:"dirty,omitempty"`
	Uncached bool    `json:"uncached,omitempty"`
	Waiters  []OpRef `json:"waiters,omitempty"`
}

// HitSnapshot is one queued LLC-hit completion.
type HitSnapshot struct {
	Ready dram.Tick `json:"ready"`
	Op    OpRef     `json:"op"`
}

// Checkpoint is the complete post-warmup state of a simulation: restore
// it into a freshly constructed simulator with the same config and the
// run continues bit-identically to one that simulated warmup itself.
// The leading config-identity fields are defense in depth: the result
// store already addresses checkpoints by the full spec, but a decoded
// checkpoint re-verifies compatibility (CompatibleWith) so a mismatched
// or hand-fed snapshot is a typed error, never silent corruption.
type Checkpoint struct {
	Workload   string       `json:"workload"`
	Cores      int          `json:"cores"`
	CPU        cpu.Config   `json:"cpu"`
	LLC        cache.Config `json:"llc"`
	LLCLatency int64        `json:"llcLatency"`
	DesignKind int          `json:"designKind"`
	Tracker    TrackerKind  `json:"tracker"`
	DesignTRH  float64      `json:"designTRH"`
	RFMTH      int          `json:"rfmth"`
	Warmup     int64        `json:"warmup"`
	Seed       uint64       `json:"seed"`

	Tick       int64     `json:"tick"`
	Rotate     int       `json:"rotate"`
	Now        dram.Tick `json:"now"`
	MemVersion uint64    `json:"memVersion"`

	CoreState []cpu.Snapshot             `json:"coreState"`
	LLCState  cache.Snapshot             `json:"llcState"`
	LLCLines  []byte                     `json:"llcLines"` // packed little-endian uint64 line words
	MC        memctrl.ControllerSnapshot `json:"mc"`
	MSHRs     []MSHRSnapshot             `json:"mshrs,omitempty"`
	HitQ      []HitSnapshot              `json:"hitQ,omitempty"`
	PendingWB []uint64                   `json:"pendingWB,omitempty"`
}

// CompatibleWith reports whether the checkpoint was captured by a run
// whose spec matches cfg up to the warmup boundary. CPU.NoFastPath is
// ignored: it is a clock-mode derivative, and the exact clock modes are
// bit-identical at the boundary, so one checkpoint serves all of them.
func (ck *Checkpoint) CompatibleWith(cfg Config) error {
	mismatch := func(what string, got, want any) error {
		return fmt.Errorf("sim: %w: checkpoint %s %v does not match config %v",
			errs.ErrBadSpec, what, got, want)
	}
	ckCPU, cfgCPU := ck.CPU, cfg.CPU
	ckCPU.NoFastPath, cfgCPU.NoFastPath = false, false
	switch {
	case ck.Workload != cfg.Workload.Name:
		return mismatch("workload", ck.Workload, cfg.Workload.Name)
	case ck.Cores != cfg.Cores:
		return mismatch("cores", ck.Cores, cfg.Cores)
	case ckCPU != cfgCPU:
		return mismatch("cpu config", ckCPU, cfgCPU)
	case ck.LLC != cfg.LLC:
		return mismatch("llc config", ck.LLC, cfg.LLC)
	case ck.LLCLatency != cfg.LLCLatency:
		return mismatch("llc latency", ck.LLCLatency, cfg.LLCLatency)
	case ck.DesignKind != int(cfg.Design.Kind):
		return mismatch("design", ck.DesignKind, int(cfg.Design.Kind))
	case ck.Tracker != cfg.Tracker:
		return mismatch("tracker", ck.Tracker, cfg.Tracker)
	case ck.DesignTRH != cfg.DesignTRH:
		return mismatch("design TRH", ck.DesignTRH, cfg.DesignTRH)
	case ck.RFMTH != cfg.RFMTH:
		return mismatch("rfmth", ck.RFMTH, cfg.RFMTH)
	case ck.Warmup != cfg.WarmupInstructions:
		return mismatch("warmup", ck.Warmup, cfg.WarmupInstructions)
	case ck.Seed != cfg.Seed:
		return mismatch("seed", ck.Seed, cfg.Seed)
	}
	return nil
}

// Encode serializes the checkpoint into the versioned envelope.
func (ck *Checkpoint) Encode() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(checkpointMagic)
	buf.WriteByte(CheckpointVersion)
	zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	if err := json.NewEncoder(zw).Encode(ck); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeCheckpoint parses an encoded checkpoint. Corrupt, truncated or
// version-skewed input is a typed error wrapping errs.ErrBadSpec; the
// decoder never panics (FuzzCheckpointDecode locks this). A successful
// decode guarantees structural sanity — counts consistent, packed line
// array well-formed — but not compatibility with any particular config;
// callers pair it with CompatibleWith.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(checkpointMagic)+1 || string(data[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("sim: %w: not a checkpoint (bad magic)", errs.ErrBadSpec)
	}
	if v := data[len(checkpointMagic)]; v != CheckpointVersion {
		return nil, fmt.Errorf("sim: %w: checkpoint version %d, want %d",
			errs.ErrBadSpec, v, CheckpointVersion)
	}
	zr := flate.NewReader(bytes.NewReader(data[len(checkpointMagic)+1:]))
	defer zr.Close()
	body, err := io.ReadAll(io.LimitReader(zr, maxCheckpointBody+1))
	if err != nil {
		return nil, fmt.Errorf("sim: %w: corrupt checkpoint body: %w", errs.ErrBadSpec, err)
	}
	if len(body) > maxCheckpointBody {
		return nil, fmt.Errorf("sim: %w: checkpoint body exceeds %d bytes", errs.ErrBadSpec, maxCheckpointBody)
	}
	ck := &Checkpoint{}
	if err := json.Unmarshal(body, ck); err != nil {
		return nil, fmt.Errorf("sim: %w: corrupt checkpoint JSON: %w", errs.ErrBadSpec, err)
	}
	if ck.Cores <= 0 || len(ck.CoreState) != ck.Cores {
		return nil, fmt.Errorf("sim: %w: checkpoint has %d core states for %d cores",
			errs.ErrBadSpec, len(ck.CoreState), ck.Cores)
	}
	if len(ck.LLCLines)%8 != 0 {
		return nil, fmt.Errorf("sim: %w: packed LLC array length %d not a multiple of 8",
			errs.ErrBadSpec, len(ck.LLCLines))
	}
	if ck.Tick < 0 || ck.Tick%6 != 0 {
		return nil, fmt.Errorf("sim: %w: checkpoint tick %d not at a macro-cycle boundary",
			errs.ErrBadSpec, ck.Tick)
	}
	for _, m := range ck.MSHRs {
		for _, ref := range m.Waiters {
			if err := validateOpRef(ref, ck); err != nil {
				return nil, err
			}
		}
	}
	for _, h := range ck.HitQ {
		if err := validateOpRef(h.Op, ck); err != nil {
			return nil, err
		}
	}
	return ck, nil
}

func validateOpRef(ref OpRef, ck *Checkpoint) error {
	if ref.Core < 0 || ref.Core >= ck.Cores {
		return fmt.Errorf("sim: %w: op reference core %d out of range [0,%d)",
			errs.ErrBadSpec, ref.Core, ck.Cores)
	}
	if ref.Index < 0 || ref.Index >= len(ck.CoreState[ref.Core].ROB) {
		return fmt.Errorf("sim: %w: op reference index %d out of range [0,%d) on core %d",
			errs.ErrBadSpec, ref.Index, len(ck.CoreState[ref.Core].ROB), ref.Core)
	}
	return nil
}

// captureCheckpoint snapshots the simulator at the warmup boundary (a
// macro-cycle boundary with warmup retirement reached). It fails only
// when a component does not support snapshotting (an unsupported
// tracker), in which case the run simply proceeds without a checkpoint.
func (s *simulator) captureCheckpoint() (*Checkpoint, error) {
	mcSnap, err := s.mc.Snapshot()
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{
		Workload:   s.cfg.Workload.Name,
		Cores:      len(s.cores),
		CPU:        s.cfg.CPU,
		LLC:        s.cfg.LLC,
		LLCLatency: s.cfg.LLCLatency,
		DesignKind: int(s.cfg.Design.Kind),
		Tracker:    s.cfg.Tracker,
		DesignTRH:  s.cfg.DesignTRH,
		RFMTH:      s.cfg.RFMTH,
		Warmup:     s.cfg.WarmupInstructions,
		Seed:       s.cfg.Seed,
		Tick:       s.tick,
		Rotate:     s.rotate,
		Now:        s.now,
		MemVersion: s.epoch,
		MC:         mcSnap,
	}
	for _, c := range s.cores {
		ck.CoreState = append(ck.CoreState, c.Snapshot())
	}
	llcSnap := s.llc.Snapshot()
	ck.LLCLines = packLines(llcSnap.Lines)
	llcSnap.Lines = nil
	ck.LLCState = llcSnap
	for _, line := range s.mshrs.lines() {
		m := s.mshrs.get(line)
		ms := MSHRSnapshot{Line: m.line, Dirty: m.dirty, Uncached: m.uncached}
		for _, op := range m.waiters {
			ref, err := s.opRef(op)
			if err != nil {
				return nil, err
			}
			ms.Waiters = append(ms.Waiters, ref)
		}
		ck.MSHRs = append(ck.MSHRs, ms)
	}
	for i := 0; i < s.hitQ.len(); i++ {
		e := s.hitQ.at(i)
		ref, err := s.opRef(e.op)
		if err != nil {
			return nil, err
		}
		ck.HitQ = append(ck.HitQ, HitSnapshot{Ready: e.ready, Op: ref})
	}
	for i := 0; i < s.pendingWB.len(); i++ {
		ck.PendingWB = append(ck.PendingWB, s.pendingWB.at(i).Addr)
	}
	return ck, nil
}

// opRef locates op in its core's ROB (see OpRef for why it must be
// there).
func (s *simulator) opRef(op *cpu.MemOp) (OpRef, error) {
	c := op.Core()
	for i := 0; i < c.ROBLen(); i++ {
		if c.ROBOp(i) == op {
			return OpRef{Core: c.ID(), Index: i}, nil
		}
	}
	return OpRef{}, fmt.Errorf("sim: in-flight op (addr %#x) missing from core %d ROB", op.Addr, c.ID())
}

// restoreCheckpoint overwrites a freshly constructed simulator with a
// decoded, compatibility-checked checkpoint. Cached acceleration state
// (core stepping hints, the controller event horizon) is deliberately
// reset rather than restored: hints are invalidated at the warmup
// boundary on the straight-through path too (SetBudget), and mcBusy=true
// forces one real controller Tick whose no-op-ness the event-horizon
// contract guarantees, so neither can perturb the simulated outcome.
func (s *simulator) restoreCheckpoint(ck *Checkpoint) error {
	for i, c := range s.cores {
		if err := c.Restore(ck.CoreState[i]); err != nil {
			return err
		}
	}
	llcSnap := ck.LLCState
	llcSnap.Lines = unpackLines(ck.LLCLines)
	if err := s.llc.Restore(llcSnap); err != nil {
		return err
	}
	if err := s.mc.Restore(ck.MC); err != nil {
		return err
	}
	if len(ck.MSHRs) > len(s.mshrs.slab) {
		return fmt.Errorf("sim: %w: checkpoint has %d MSHRs, more than the %d read-queue slots",
			errs.ErrBadSpec, len(ck.MSHRs), len(s.mshrs.slab))
	}
	for _, ms := range ck.MSHRs {
		if s.mshrs.get(ms.Line) != nil {
			return fmt.Errorf("sim: %w: duplicate MSHR line %d in checkpoint", errs.ErrBadSpec, ms.Line)
		}
		m := s.mshrs.alloc(ms.Line)
		m.dirty, m.uncached = ms.Dirty, ms.Uncached
		for _, ref := range ms.Waiters {
			m.waiters = append(m.waiters, s.cores[ref.Core].ROBOp(ref.Index))
		}
	}
	for _, h := range ck.HitQ {
		s.hitQ.push(hitEntry{ready: h.Ready, op: s.cores[h.Op.Core].ROBOp(h.Op.Index)})
	}
	for _, addr := range ck.PendingWB {
		s.pendingWB.push(memctrl.Request{
			Addr: addr, Write: true, Loc: s.mc.Map(addr),
		})
	}
	s.tick = ck.Tick
	s.rotate = ck.Rotate
	s.now = ck.Now
	s.cycle = s.cores[0].Cycles()
	s.epoch = ck.MemVersion
	s.mcBusy = true
	return nil
}

// warmup brings the simulator to the post-warmup state: restoring a
// checkpoint when one is supplied, otherwise simulating the warmup
// instructions and offering the resulting state to OnCheckpoint.
func (s *simulator) warmup() error {
	if len(s.cfg.RestoreCheckpoint) > 0 {
		ck, err := DecodeCheckpoint(s.cfg.RestoreCheckpoint)
		if err != nil {
			return err
		}
		if err := ck.CompatibleWith(s.cfg); err != nil {
			return err
		}
		return s.restoreCheckpoint(ck)
	}
	if s.cfg.WarmupInstructions <= 0 {
		return nil
	}
	if err := s.runUntilRetired(s.cfg.WarmupInstructions); err != nil {
		return err
	}
	s.wakeAll() // the run resets the cores' stats, and a checkpoint holds their clocks
	if s.cfg.OnCheckpoint != nil {
		if ck, err := s.captureCheckpoint(); err == nil {
			if data, err := ck.Encode(); err == nil {
				s.cfg.OnCheckpoint(data)
			}
		}
	}
	return nil
}

// packLines serializes the LLC line words little-endian; the flate layer
// of the envelope compresses the result.
func packLines(lines []uint64) []byte {
	out := make([]byte, 8*len(lines))
	for i, l := range lines {
		binary.LittleEndian.PutUint64(out[8*i:], l)
	}
	return out
}

func unpackLines(data []byte) []uint64 {
	out := make([]uint64, len(data)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return out
}
