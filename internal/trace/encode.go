package trace

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"impress/internal/errs"
)

// This file implements the materializing half of the trace codec — the
// in-memory Trace plus Encode/Decode over whole files — and the Record
// half of the record/replay pipeline. The on-disk container is the
// framed version-2 format (format.go; DESIGN.md §7 has the byte-level
// specification), and Decode also reads legacy version-1 files:
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
// cancellation: ctx is checked between per-core drains and every few
// thousand requests, so recording a multi-million-request trace stops
// promptly when the context ends (errs.ErrCancelled wrapping ctx.Err()).
// To record straight to disk without materializing, use RecordTo or
// RecordFile.
func RecordContext(ctx context.Context, w Workload, cores, perCore int, seed uint64) (*Trace, error) {
	if w.NewGenerator == nil {
		return nil, fmt.Errorf("%w: workload %q has no generator", errs.ErrBadSpec, w.Name)
	}
	if cores <= 0 || perCore <= 0 {
		return nil, fmt.Errorf("%w: Record needs positive core and request counts (got %d cores x %d)",
			errs.ErrBadSpec, cores, perCore)
	}
	done := ctx.Done()
	t := &Trace{
		Name:     w.Name,
		Stream:   w.Stream,
		Seed:     seed,
		LineSize: LineSize,
		PerCore:  make([][]Request, cores),
	}
	for c := 0; c < cores; c++ {
		g := w.NewGenerator(c, seed)
		reqs := make([]Request, perCore)
		for i := range reqs {
			if done != nil && i&0xfff == 0 {
				select {
				case <-done:
					return nil, fmt.Errorf("recording %q: %w", w.Name, errs.Cancelled(ctx.Err()))
				default:
				}
			}
			reqs[i] = g.Next()
		}
		t.PerCore[c] = reqs
	}
	return t, nil
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
// size. For files too large to materialize, use Reader.
func Decode(r io.Reader) (*Trace, error) {
	d := newDecodeState(r)
	h, version, err := d.header()
	if err != nil {
		return nil, err
	}
	t := &Trace{
		Name:     h.Name,
		Stream:   h.Stream,
		Seed:     h.Seed,
		LineSize: h.LineSize,
		PerCore:  make([][]Request, h.Cores),
	}
	if version == 1 {
		err = decodeV1Body(d, t)
	} else {
		err = decodeV2Body(d, t)
	}
	if err != nil {
		return nil, err
	}
	if _, err := d.br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trace: trailing data after %d cores", h.Cores)
	}
	return t, nil
}

// decodeV1Body reads the legacy version-1 body: per core a request
// count and then that many delta-encoded requests.
func decodeV1Body(d *decodeState, t *Trace) error {
	lineSize := uint64(t.LineSize)
	maxLine := maxLineFor(lineSize)
	for c := range t.PerCore {
		count, err := d.uvarint(fmt.Sprintf("core %d request count", c), 1<<40)
		if err != nil {
			return err
		}
		// Grow incrementally: a corrupt count cannot force a huge upfront
		// allocation because every record consumes input bytes.
		reqs := make([]Request, 0, int(min(count, 1<<16)))
		prevLine := int64(0)
		for i := uint64(0); i < count; i++ {
			du, err := d.uvarint("line delta", ^uint64(0))
			if err != nil {
				return err
			}
			line := prevLine + unzigzag(du)
			if line < 0 || uint64(line) > maxLine {
				return fmt.Errorf("trace: core %d request %d: line %d out of range", c, i, line)
			}
			meta, err := d.uvarint("request meta", ^uint64(0))
			if err != nil {
				return err
			}
			gap := meta >> 2
			if gap > maxTraceGap {
				return fmt.Errorf("trace: core %d request %d: gap %d out of range", c, i, gap)
			}
			reqs = append(reqs, Request{
				Addr:     uint64(line) * lineSize,
				Write:    meta&1 != 0,
				Uncached: meta&2 != 0,
				Gap:      int(gap),
			})
			prevLine = line
		}
		t.PerCore[c] = reqs
	}
	return nil
}

// decodeV2Body reads the framed version-2 body sequentially, then
// verifies that the trailing index and trailer describe exactly the
// frames it read — a sequential decode accepts only files a random-
// access Reader would replay identically.
func decodeV2Body(d *decodeState, t *Trace) error {
	for c := range t.PerCore {
		t.PerCore[c] = make([]Request, 0)
	}
	lineSize := uint64(t.LineSize)
	maxLine := maxLineFor(lineSize)
	var (
		seen    []frameInfo
		payload []byte
		raw     []byte
		br      *bytes.Reader
		inflate io.ReadCloser
	)
	for {
		tag, err := d.readByte("section tag")
		if err != nil {
			return err
		}
		if tag == tagIndex {
			break
		}
		if tag != tagFrame {
			return fmt.Errorf("trace: unknown section tag %#x", tag)
		}
		core, err := d.uvarint("frame core", uint64(len(t.PerCore))-1)
		if err != nil {
			return err
		}
		count, err := d.uvarint("frame request count", maxFrameRequests)
		if err != nil {
			return err
		}
		if count == 0 {
			return fmt.Errorf("trace: frame with zero requests")
		}
		flags, err := d.uvarint("frame flags", ^uint64(0))
		if err != nil {
			return err
		}
		if flags&^uint64(frameFlagDeflate) != 0 {
			return fmt.Errorf("trace: unknown frame flag bits %#x", flags&^uint64(frameFlagDeflate))
		}
		length, err := d.uvarint("frame payload length", maxFramePayload)
		if err != nil {
			return err
		}
		if length == 0 {
			return fmt.Errorf("trace: frame with an empty payload")
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		p := payload[:length]
		off := d.off
		if err := d.readFull(p, "frame payload"); err != nil {
			return err
		}
		if flags&frameFlagDeflate != 0 {
			if inflate == nil {
				br = bytes.NewReader(p)
				inflate = flate.NewReader(br)
			} else {
				br.Reset(p)
				if err := inflate.(flate.Resetter).Reset(br, nil); err != nil {
					return err
				}
			}
			need := 20*int(count) + 1
			if cap(raw) < need {
				raw = make([]byte, need)
			}
			n, err := inflateInto(inflate, raw[:need])
			if err != nil {
				return fmt.Errorf("trace: frame at offset %d: %w", off, err)
			}
			p = raw[:n]
		}
		reqs := t.PerCore[core]
		base := len(reqs)
		reqs = append(reqs, make([]Request, count)...)
		if err := decodeFrameInto(p, reqs[base:], 0, lineSize, maxLine); err != nil {
			return fmt.Errorf("trace: frame at offset %d: %w", off, err)
		}
		t.PerCore[core] = reqs
		seen = append(seen, frameInfo{
			core: int(core), count: int(count), off: off, length: int(length), flags: byte(flags),
		})
	}
	// The index tag has been consumed; verify the index against the
	// frames actually read.
	indexOff := d.off - 1
	count, err := d.uvarint("index frame count", ^uint64(0))
	if err != nil {
		return err
	}
	if count != uint64(len(seen)) {
		return fmt.Errorf("trace: index lists %d frames; the file has %d", count, len(seen))
	}
	for i, want := range seen {
		var got [5]uint64
		for j, what := range [5]string{
			"frame core", "frame request count", "frame payload offset", "frame payload length", "frame flags",
		} {
			if got[j], err = d.uvarint(what, ^uint64(0)); err != nil {
				return err
			}
		}
		if got[0] != uint64(want.core) || got[1] != uint64(want.count) ||
			got[2] != uint64(want.off) || got[3] != uint64(want.length) || got[4] != uint64(want.flags) {
			return fmt.Errorf("trace: index entry %d does not match the frame at offset %d", i, want.off)
		}
	}
	var trailer [trailerSize]byte
	if err := d.readFull(trailer[:], "index trailer"); err != nil {
		return err
	}
	if string(trailer[8:]) != trailerMagic {
		return fmt.Errorf("trace: truncated or corrupt trace file (bad index trailer magic)")
	}
	if got := int64(binary.LittleEndian.Uint64(trailer[:8])); got != indexOff {
		return fmt.Errorf("trace: trailer points at index offset %d; the index is at %d", got, indexOff)
	}
	return nil
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
