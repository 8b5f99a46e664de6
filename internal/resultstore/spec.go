// Package resultstore persists simulation results in an on-disk,
// content-addressed cache so repeated experiment sweeps — and sweeps split
// across processes or machines — pay for each distinct simulation exactly
// once.
//
// Every entry is keyed by a cryptographic hash of the fully-resolved run
// configuration (Spec, derived from sim.Config by SpecFor): the canonical
// workload spec including mix/attack expansion, the trace-file content
// hash for file replays, the defense design, tracker, thresholds, core and
// cache geometry, instruction budgets and seed. Fields that provably do
// not affect the result — the clock mode (all modes are bit-identical by
// contract), the MaxCycles safety net, the cycle-accurate NoFastPath
// toggle — are excluded, so an event-driven run can serve a later
// cycle-accurate request and vice versa.
//
// Records are versioned JSON; a corrupt, truncated or version-mismatched
// entry is treated as a cache miss, never an error, so a store directory
// can be shared, upgraded or damaged without breaking a sweep. Writes are
// atomic (temp file + rename), making one directory safe for concurrent
// writers across processes. See DESIGN.md §8 for the key-derivation and
// invalidation rules.
package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"impress/internal/cache"
	"impress/internal/core"
	"impress/internal/cpu"
	"impress/internal/errs"
	"impress/internal/sim"
	"impress/internal/trace"
)

// FormatVersion is the record format version this package reads and
// writes. Bump it whenever the record layout changes or a simulator
// change alters results without changing any Spec field — every existing
// entry then becomes a miss (and `impress-experiments cache gc` reclaims
// it) instead of silently serving stale results.
const FormatVersion = 1

// keyPreamble domain-separates spec hashes from any other sha256 use.
const keyPreamble = "impress-resultstore/v1\n"

// Spec is the canonical, serializable description of one fully-resolved
// simulation run: two sim.Configs produce equal Specs if and only if
// sim.RunContext is contractually bound to produce bit-identical
// Results for them. The JSON encoding of a Spec (fixed field order, exact float64
// round-tripping) is the preimage of the store key.
type Spec struct {
	// Workload is the canonical workload spec ("mcf", "mix:a,b,...",
	// "attack:<pattern>"); WorkloadByName resolves it back to a live
	// generator. Empty when the run replays a trace file (TraceSHA256
	// identifies the stream instead).
	Workload string `json:"workload,omitempty"`
	// TraceSHA256 is the hex sha256 of the replayed trace file's content
	// when the run was configured with sim.Config.TraceFile; the content
	// subsumes the workload name, core count and seed the file carries.
	TraceSHA256 string `json:"traceSHA256,omitempty"`

	Cores      int          `json:"cores,omitempty"`
	CPU        cpu.Config   `json:"cpu"`
	LLC        cache.Config `json:"llc"`
	LLCLatency int64        `json:"llcLatency"`

	Design    core.Design     `json:"design"`
	Tracker   sim.TrackerKind `json:"tracker"`
	DesignTRH float64         `json:"designTRH"`
	RFMTH     int             `json:"rfmth"`

	Warmup int64  `json:"warmup"`
	Run    int64  `json:"run"`
	Seed   uint64 `json:"seed,omitempty"`

	// Sampled marks a ClockSampled run. The sampled clock breaks the
	// "all clock modes are bit-identical" contract that lets the exact
	// modes share entries, so sampled results are keyed separately; the
	// omitempty tags keep every exact-mode preimage — and therefore every
	// existing store key — byte-identical to pre-sampling builds.
	Sampled bool `json:"sampled,omitempty"`
	// MaxRelError is the sampled run's early-stop threshold: it changes
	// how many intervals are measured, hence the result.
	MaxRelError float64 `json:"maxRelError,omitempty"`
}

// Key is the content address of a Spec: a lowercase hex sha256.
type Key string

// SpecFor derives the canonical spec for cfg, mirroring how sim.RunContext
// resolves the configuration:
//
//   - a TraceFile run is keyed by the file's content hash (the file
//     overrides workload, core count and seed, so those fields are left
//     empty); reading the file can fail;
//   - a NaN or infinite DesignTRH, Design.Alpha or (sampled)
//     MaxRelError has no canonical JSON encoding: SpecFor returns an
//     error wrapping errs.ErrBadSpec, as sim.Config.Validate would;
//   - CPU.NoFastPath is cleared — sim.RunContext derives it from the
//     clock mode;
//   - Clock and MaxCycles are dropped entirely: every clock mode produces
//     bit-identical results, and MaxCycles is a deadlock safety net that
//     panics instead of producing a different Result.
//
// Workloads are keyed by name. Every WorkloadByName-resolvable spec
// (built-ins, mixes, attacks) is canonical by construction, and a trace
// replayed through Trace.Workload keeps its recorded name, which the
// replay-equivalence contract makes interchangeable with the live run. A
// hand-built Workload whose Name does not determine its request streams
// (together with the seed) would alias; such workloads must not be run
// through a store.
func SpecFor(cfg sim.Config) (Spec, error) {
	s := Spec{
		Cores:      cfg.Cores,
		CPU:        cfg.CPU,
		LLC:        cfg.LLC,
		LLCLatency: cfg.LLCLatency,
		Design:     cfg.Design,
		Tracker:    cfg.Tracker,
		DesignTRH:  cfg.DesignTRH,
		RFMTH:      cfg.RFMTH,
		Warmup:     cfg.WarmupInstructions,
		Run:        cfg.RunInstructions,
		Seed:       cfg.Seed,
	}
	s.CPU.NoFastPath = false
	if cfg.Clock == sim.ClockSampled {
		s.Sampled = true
		s.MaxRelError = cfg.MaxRelError
	}
	for _, v := range [...]float64{s.DesignTRH, s.Design.Alpha, s.MaxRelError} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Spec{}, fmt.Errorf("resultstore: %w: non-finite %v has no canonical encoding", errs.ErrBadSpec, v)
		}
	}
	if cfg.TraceFile != "" {
		// Hash by streaming: trace files can exceed RAM (the whole replay
		// pipeline is built not to materialize them), and the key
		// derivation must not either.
		f, err := os.Open(cfg.TraceFile)
		if err != nil {
			return Spec{}, fmt.Errorf("resultstore: hashing trace file: %w", err)
		}
		h := sha256.New()
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return Spec{}, fmt.Errorf("resultstore: hashing trace file: %w", err)
		}
		s.TraceSHA256 = hex.EncodeToString(h.Sum(nil))
		// The file overrides these three in sim.RunContext; the content
		// hash stands in for all of them.
		s.Workload, s.Cores, s.Seed = "", 0, 0
	} else {
		s.Workload = cfg.Workload.Name
	}
	return s, nil
}

// canonicalJSON renders the spec's key preimage. Marshalling a flat
// struct of plain values cannot fail; a failure here means the Spec type
// itself is broken, which is a programming error.
func (s Spec) canonicalJSON() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("resultstore: marshalling spec: %v", err))
	}
	return b
}

// Key returns the spec's content address, derived once per distinct
// spec value in the process (see specKeys).
func (s Spec) Key() Key {
	_, k := s.keyed()
	return k
}

// keyOf returns the content address of a canonical preimage under a
// record kind's domain-separating preamble.
func keyOf(preamble string, canon []byte) Key {
	h := sha256.New()
	h.Write([]byte(preamble))
	h.Write(canon)
	return Key(hex.EncodeToString(h.Sum(nil)))
}

// Config rebuilds a runnable sim.Config from the spec (the inverse of
// SpecFor), used by `impress-experiments cache verify` to re-simulate
// stored entries. Trace-file entries are not reconstructible — the store
// holds only the file's hash, not its content — and return an error.
func (s Spec) Config() (sim.Config, error) {
	if s.TraceSHA256 != "" {
		return sim.Config{}, fmt.Errorf(
			"resultstore: entry replays a trace file (sha256 %s); the store does not retain its content", s.TraceSHA256)
	}
	w, err := trace.WorkloadByName(s.Workload)
	if err != nil {
		return sim.Config{}, fmt.Errorf("resultstore: %w", err)
	}
	cfg := sim.Config{
		Workload:           w,
		Cores:              s.Cores,
		CPU:                s.CPU,
		LLC:                s.LLC,
		LLCLatency:         s.LLCLatency,
		Design:             s.Design,
		Tracker:            s.Tracker,
		DesignTRH:          s.DesignTRH,
		RFMTH:              s.RFMTH,
		WarmupInstructions: s.Warmup,
		RunInstructions:    s.Run,
		Seed:               s.Seed,
	}
	if s.Sampled {
		cfg.Clock = sim.ClockSampled
		cfg.MaxRelError = s.MaxRelError
	}
	return cfg, nil
}

// ckptPreamble domain-separates checkpoint keys from result keys: the
// same spec addresses both a result entry and a warmup-checkpoint entry,
// and the two must never collide.
const ckptPreamble = "impress-resultstore/ckpt/v1\n"

// checkpointSpec reduces the spec to the fields that determine the
// post-warmup state: the run budget and the sampling fields only affect
// what happens after the warmup boundary, so specs differing only there
// share one checkpoint.
func (s Spec) checkpointSpec() Spec {
	s.Run = 0
	s.Sampled = false
	s.MaxRelError = 0
	return s
}

// CheckpointKey returns the content address of the spec's warmup
// checkpoint. Specs that differ only in run budget or sampling fields
// map to the same key (see checkpointSpec).
func (s Spec) CheckpointKey() Key { return keyOf(ckptPreamble, s.checkpointSpec().canonicalJSON()) }
