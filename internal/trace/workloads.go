package trace

import (
	"fmt"
	"strings"

	"impress/internal/attack"
	"impress/internal/errs"
)

// This file defines the 20 workloads of the paper's evaluation (Section
// III-A): 10 SPEC2017-like traces, 4 STREAM kernels and 6 pairwise STREAM
// mixes, all run in 8-core rate mode. Profile parameters are calibrated to
// published characterization of the original workloads: intensities are
// post-L2 accesses per kilo-instruction and SeqRun captures row-buffer
// locality under MOP-8 mapping.

// Footprint constants in cache lines.
const (
	mb = (1 << 20) / LineSize // lines per MB
)

// SPECProfiles returns the 10 SPEC2017-like workload profiles. SPEC
// workloads have low-to-medium spatial locality, which is why Figure 3
// shows them insensitive to tMRO.
func SPECProfiles() []Profile {
	return []Profile{
		{Name: "fotonik3d", MemPerKI: 25, SeqRun: 5, FootprintLines: 96 * mb, WriteFrac: 0.30, ReuseFrac: 0.10, Streams: 4},
		{Name: "mcf", MemPerKI: 35, SeqRun: 1.2, FootprintLines: 160 * mb, WriteFrac: 0.25, ReuseFrac: 0.15, Streams: 2},
		{Name: "gcc", MemPerKI: 3, SeqRun: 2, FootprintLines: 24 * mb, WriteFrac: 0.35, ReuseFrac: 0.40, Streams: 2},
		{Name: "omnetpp", MemPerKI: 12, SeqRun: 1.3, FootprintLines: 64 * mb, WriteFrac: 0.30, ReuseFrac: 0.25, Streams: 2},
		{Name: "bwaves", MemPerKI: 22, SeqRun: 6, FootprintLines: 112 * mb, WriteFrac: 0.20, ReuseFrac: 0.10, Streams: 3},
		{Name: "roms", MemPerKI: 18, SeqRun: 5, FootprintLines: 80 * mb, WriteFrac: 0.30, ReuseFrac: 0.12, Streams: 3},
		{Name: "cactuBSSN", MemPerKI: 10, SeqRun: 3, FootprintLines: 48 * mb, WriteFrac: 0.35, ReuseFrac: 0.20, Streams: 3},
		{Name: "wrf", MemPerKI: 8, SeqRun: 4, FootprintLines: 48 * mb, WriteFrac: 0.30, ReuseFrac: 0.25, Streams: 3},
		{Name: "pop2", MemPerKI: 6, SeqRun: 3, FootprintLines: 32 * mb, WriteFrac: 0.30, ReuseFrac: 0.30, Streams: 2},
		{Name: "xalancbmk", MemPerKI: 4, SeqRun: 1.5, FootprintLines: 24 * mb, WriteFrac: 0.25, ReuseFrac: 0.40, Streams: 2},
	}
}

// StreamKernels returns the 4 McCalpin STREAM kernels: near-perfect
// sequential locality and very high memory intensity, making them the
// tMRO-sensitive class of Figure 3.
func StreamKernels() []Profile {
	// STREAM arrays are far larger than the LLC; reuse is nil. SeqRun is
	// effectively unbounded; 512 lines per run keeps runs long against
	// MOP-8's 8-line row groups.
	k := func(name string, streams int, writeFrac float64) Profile {
		return Profile{
			Name: name, MemPerKI: 160, SeqRun: 512,
			FootprintLines: 256 * mb, WriteFrac: writeFrac,
			ReuseFrac: 0, Streams: streams,
		}
	}
	return []Profile{
		k("copy", 2, 0.50),  // a[i] = b[i]
		k("scale", 2, 0.50), // a[i] = q*b[i]
		k("add", 3, 0.34),   // a[i] = b[i]+c[i]
		k("triad", 3, 0.34), // a[i] = b[i]+q*c[i]
	}
}

// MixNames lists the 6 pairwise STREAM mixes of the paper.
func MixNames() [][2]string {
	return [][2]string{
		{"add", "copy"}, {"add", "scale"}, {"add", "triad"},
		{"copy", "scale"}, {"copy", "triad"}, {"scale", "triad"},
	}
}

// Workload couples a name with a per-core generator constructor.
type Workload struct {
	Name string
	// Stream reports whether the workload belongs to the STREAM class
	// (used for the paper's SPEC/STREAM geomean split).
	Stream bool
	// NewGenerator builds the generator for one core in rate mode. Cores
	// receive disjoint address ranges and decorrelated seeds.
	NewGenerator func(coreID int, seed uint64) Generator
}

// coreBase returns the base line address of a core's private range in rate
// mode: 512 MB per core keeps every footprint disjoint within the 64 GB
// system of Table II.
func coreBase(coreID int) uint64 { return uint64(coreID) * 512 * mb }

func profileWorkload(p Profile, stream bool) Workload {
	return Workload{
		Name:   p.Name,
		Stream: stream,
		NewGenerator: func(coreID int, seed uint64) Generator {
			return New(p, coreBase(coreID), seed+uint64(coreID)*0x9e3779b97f4a7c15)
		},
	}
}

// Workloads returns the paper's full 20-workload list in figure order:
// 10 SPEC, 4 STREAM kernels, 6 STREAM mixes.
func Workloads() []Workload {
	var ws []Workload
	for _, p := range SPECProfiles() {
		ws = append(ws, profileWorkload(p, false))
	}
	kernels := map[string]Profile{}
	for _, p := range StreamKernels() {
		ws = append(ws, profileWorkload(p, true))
		kernels[p.Name] = p
	}
	for _, m := range MixNames() {
		a, b := kernels[m[0]], kernels[m[1]]
		name := fmt.Sprintf("%s_%s", m[0], m[1])
		ws = append(ws, Workload{
			Name:   name,
			Stream: true,
			NewGenerator: func(coreID int, seed uint64) Generator {
				return NewMix(name, a, b, coreBase(coreID), seed+uint64(coreID)*0x9e3779b97f4a7c15)
			},
		})
	}
	return ws
}

// WorkloadByName resolves a workload spec: one of the 20 built-in
// workload names, an "attack:<pattern>" adversarial workload (see
// attack.PaperPatternNames; "attack:synth:<genome>" runs a synthesized
// genome), an "attackzoo:<name>" archived champion, or a
// "mix:<entry>,<entry>,..." per-core co-run assignment (see ParseMix).
// Recorded trace headers store these specs, so any name a simulation ran
// under resolves back to a live equivalent.
//
// "attackzoo:" is pure indirection: the zoo manifest's genome resolves
// to the same canonical "attack:synth:<genome>" workload (and the same
// result-store key) as spelling the genome out — an archive name is an
// alias, never a distinct cache entry.
func WorkloadByName(name string) (Workload, error) {
	if rest, ok := strings.CutPrefix(name, "mix:"); ok {
		return ParseMix(rest)
	}
	if rest, ok := strings.CutPrefix(name, "attack:"); ok {
		return NewAttackWorkload(rest)
	}
	if rest, ok := strings.CutPrefix(name, "attackzoo:"); ok {
		e, err := attack.ReadZooEntry(attack.DefaultZooDir(), rest)
		if err != nil {
			return Workload{}, err
		}
		return NewAttackWorkload(attack.SynthSpecPrefix + e.Genome)
	}
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf(
		"trace: %w %q (want a built-in name, \"mix:a,b,...\", \"attack:<pattern>\" or \"attackzoo:<name>\")",
		errs.ErrUnknownWorkload, name)
}

// mix interleaves two kernel generators, switching every switchEvery
// requests (coarse phase behaviour of mixed workloads).
type mix struct {
	name string
	a, b Generator
	n    int
	cur  int
}

// NewMix builds a mixed workload that alternates between kernels a and b
// in coarse phases.
func NewMix(name string, a, b Profile, base, seed uint64) Generator {
	// The two kernels use disjoint halves of the core's range.
	return &mix{
		name: name,
		a:    New(a, base, seed),
		b:    New(b, base+256*mb, seed^0xabcdef1234567890),
	}
}

const mixSwitchEvery = 4096

// Name implements Generator.
func (m *mix) Name() string { return m.name }

// Next implements Generator.
func (m *mix) Next() Request {
	phase := (m.n / mixSwitchEvery) % 2
	m.n++
	if phase == 0 {
		return m.a.Next()
	}
	return m.b.Next()
}
