package trace

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"

	"impress/internal/errs"
)

// This file implements the in-memory Trace — Encode and Decode over
// whole files, both thin layers over the streaming Writer and Reader —
// and the Record half of the record/replay pipeline. The on-disk
// container is the framed version-2 format (format.go; DESIGN.md §7 has
// the byte-level specification), and Decode also reads legacy
// version-1 files:
//
//	v1: header | per core: uvarint request count, then per request the
//	    zigzag-uvarint line delta (vs. the previous request of the SAME
//	    core; first delta vs. line 0) and uvarint meta
//	    = gap<<2 | uncached<<1 | write.
//	v2: header | framed sections | index | trailer, with the identical
//	    per-request encoding inside each frame (deltas frame-local).
//
// Per-core delta encoding exploits the spatial locality the generators
// are built around: sequential runs encode as two bytes per request.
// For files too large to materialize, use Writer/Reader (writer.go,
// reader.go) — same format, fixed memory.

// traceMagic opens every trace file.
const traceMagic = "IMPTRC"

// TraceVersion is the format version this package writes. Decode and
// Reader also accept version 1.
const TraceVersion = 2

// Decode hard limits: headers claiming more are rejected as corrupt
// rather than trusted with allocations. Request counts need no explicit
// cap — requests are decoded incrementally and every record costs at
// least two input bytes, so memory is bounded by the input size.
const (
	maxTraceName     = 1 << 12
	maxTraceCores    = 1 << 10
	maxTraceLineSize = 1 << 20
	// maxTraceLine bounds line indices to a sane physical space; Decode
	// additionally clamps lines so Addr = line * lineSize stays below
	// 2^63 and cannot overflow for any accepted line size.
	maxTraceLine = 1 << 52
	// maxTraceGap bounds per-request instruction gaps.
	maxTraceGap = 1 << 40
)

// Trace is a recorded multi-core request stream: the header identifies
// what was captured and PerCore holds each core's full stream in issue
// order. A Trace is immutable once built; replaying it (Workload) is safe
// from concurrent sim.RunContext calls because every replay generator
// keeps its own cursor.
type Trace struct {
	// Name is the recorded workload's name (a plain workload, a
	// "mix:..." spec or an "attack:..." pattern — WorkloadByName resolves
	// all three).
	Name string
	// Stream records the workload's SPEC/STREAM classification so
	// replayed runs land in the right geomean bucket.
	Stream bool
	// Seed is the generator seed the recording used.
	Seed uint64
	// LineSize is the cache-line granularity of the recorded addresses.
	LineSize int
	// PerCore holds one request stream per recorded core.
	PerCore [][]Request
}

// Requests returns the total request count across all cores.
func (t *Trace) Requests() int {
	n := 0
	for _, reqs := range t.PerCore {
		n += len(reqs)
	}
	return n
}

// Record drains perCore requests from each of cores fresh generators of w
// (seeded exactly as a live simulation would seed them) into a Trace.
// Replaying the result through sim.RunContext reproduces the live run
// bit-identically as long as perCore covers every request the simulated
// cores consume; the replay generator fails loudly if it does not.
func Record(w Workload, cores, perCore int, seed uint64) *Trace {
	t, err := RecordContext(context.Background(), w, cores, perCore, seed)
	if err != nil {
		panic(fmt.Sprintf("trace: %v", err))
	}
	return t
}

// RecordContext is Record with caller-input validation surfaced as typed
// errors (errs.ErrBadSpec) instead of panics, and cooperative
// cancellation: ctx is checked every few thousand requests, so
// recording a multi-million-request trace stops promptly when the
// context ends (errs.ErrCancelled wrapping ctx.Err()). To record
// straight to disk without materializing, use RecordTo or RecordFile.
func RecordContext(ctx context.Context, w Workload, cores, perCore int, seed uint64) (*Trace, error) {
	var t *Trace
	err := record(ctx, w, cores, perCore, seed, func(h Header) (func(int, Request) error, error) {
		t = &Trace{
			Name:     h.Name,
			Stream:   h.Stream,
			Seed:     h.Seed,
			LineSize: h.LineSize,
			PerCore:  make([][]Request, h.Cores),
		}
		for c := range t.PerCore {
			t.PerCore[c] = make([]Request, 0, perCore)
		}
		return func(core int, req Request) error {
			t.PerCore[core] = append(t.PerCore[core], req)
			return nil
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// record is the one recording loop behind RecordContext and RecordTo.
// It validates the request, opens the sink with the recording's header,
// then feeds emit perCore requests from each of cores fresh generators
// of w, seeded exactly as a live simulation seeds them, polling ctx
// every 4096 requests.
func record(ctx context.Context, w Workload, cores, perCore int, seed uint64,
	open func(Header) (emit func(core int, req Request) error, err error)) error {
	if w.NewGenerator == nil {
		return fmt.Errorf("%w: workload %q has no generator", errs.ErrBadSpec, w.Name)
	}
	if cores <= 0 || perCore <= 0 {
		return fmt.Errorf("%w: Record needs positive core and request counts (got %d cores x %d)",
			errs.ErrBadSpec, cores, perCore)
	}
	emit, err := open(Header{Name: w.Name, Stream: w.Stream, Seed: seed, LineSize: LineSize, Cores: cores})
	if err != nil {
		return err
	}
	done := ctx.Done()
	for c := 0; c < cores; c++ {
		g := w.NewGenerator(c, seed)
		for i := 0; i < perCore; i++ {
			if done != nil && i&0xfff == 0 {
				select {
				case <-done:
					return fmt.Errorf("recording %q: %w", w.Name, errs.Cancelled(ctx.Err()))
				default:
				}
			}
			if err := emit(c, g.Next()); err != nil {
				return err
			}
		}
	}
	return nil
}

// zigzag maps signed deltas onto unsigned varint-friendly values.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Encode writes the trace in the version-2 binary format by streaming
// it through a Writer (default frame size, uncompressed).
func (t *Trace) Encode(w io.Writer) error {
	tw, err := NewWriter(w, Header{
		Name: t.Name, Stream: t.Stream, Seed: t.Seed, LineSize: t.LineSize, Cores: len(t.PerCore),
	}, nil)
	if err != nil {
		return err
	}
	for c, reqs := range t.PerCore {
		for _, req := range reqs {
			if err := tw.Append(c, req); err != nil {
				return err
			}
		}
	}
	return tw.Close()
}

// Decode reads a whole trace — version 1 or 2 — into memory. It never
// panics on corrupt or truncated input: every structural violation —
// bad magic, unknown version or flag bits, out-of-range header fields,
// truncated streams, an index that contradicts the frames, trailing
// garbage — returns an error, and allocation is bounded by the input
// size. Decode is the streaming Reader drained into memory, plus one
// check an open skips: a version-2 file's frames must tile the region
// between its header and its index, exactly as the Writer lays them
// out (checkTiling). For files too large to materialize, use Reader.
func Decode(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	rd, err := newReader(bytes.NewReader(data), int64(len(data)), true)
	if err != nil {
		return nil, err
	}
	t := &Trace{
		Name:     rd.h.Name,
		Stream:   rd.h.Stream,
		Seed:     rd.h.Seed,
		LineSize: rd.h.LineSize,
		PerCore:  make([][]Request, rd.h.Cores),
	}
	for c := range t.PerCore {
		// Grow frame by frame: the index's request counts are claims,
		// and each frame's requests are appended only once it decodes.
		reqs := []Request{}
		g := newStreamGen(rd, c)
		for g.fi < len(g.frames) {
			if err := g.load(); err != nil {
				return nil, fmt.Errorf("trace: frame at offset %d: %w", g.frames[g.fi].off, err)
			}
			reqs = append(reqs, g.buf...)
		}
		t.PerCore[c] = reqs
	}
	return t, nil
}

// WriteFile encodes the trace to path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile decodes the trace stored at path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}
