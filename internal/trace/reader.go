package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Reader is the streaming side of the trace pipeline: it opens a trace
// file by reading only the header and the frame index (for version-2
// files; a version-1 file costs one sequential validation scan that
// synthesizes an equivalent index), and replays it through generators
// that hold a single decoded frame per core — a fixed buffer budget no
// matter how large the file is.
//
// A Reader is safe for concurrent replays: every generator keeps its
// own cursor and buffers, and reads go through io.ReaderAt. The Reader
// must stay open for as long as any generator built from it is in use.
type Reader struct {
	h       Header
	version int
	src     io.ReaderAt
	closer  io.Closer

	perCore [][]frameInfo
	counts  []int64
	total   int64
}

// OpenReader opens the trace file at path, reading its header and
// frame index. The caller owns the returned Reader and must Close it
// after the last generator built from it is done.
func OpenReader(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// NewReader builds a streaming Reader over size bytes of src. Version-2
// files are opened by reading the header and the trailing frame index
// only; version-1 files are validated and indexed with one sequential
// scan (re-encode with `impress-trace record` or Trace.WriteFile to
// avoid the scan on every open).
func NewReader(src io.ReaderAt, size int64) (*Reader, error) {
	return newReader(src, size, false)
}

// newReader is NewReader, additionally holding a version-2 file's frame
// region to its index (checkTiling) when tiled is set.
func newReader(src io.ReaderAt, size int64, tiled bool) (*Reader, error) {
	d := newDecodeState(io.NewSectionReader(src, 0, size))
	h, version, err := d.header()
	if err != nil {
		return nil, err
	}
	r := &Reader{h: h, version: int(version), src: src}
	var frames []frameInfo
	if version == 1 {
		frames, err = scanV1(d, h)
		if err != nil {
			return nil, err
		}
		if _, err := d.br.ReadByte(); err != io.EOF {
			return nil, fmt.Errorf("trace: trailing data after %d cores", h.Cores)
		}
	} else {
		var indexOff int64
		frames, indexOff, err = readIndex(src, size, d.off, h)
		if err != nil {
			return nil, err
		}
		if tiled {
			if err := checkTiling(d, frames, indexOff); err != nil {
				return nil, err
			}
		}
	}
	r.perCore = make([][]frameInfo, h.Cores)
	r.counts = make([]int64, h.Cores)
	for _, f := range frames {
		r.perCore[f.core] = append(r.perCore[f.core], f)
		r.counts[f.core] += int64(f.count)
		r.total += int64(f.count)
	}
	return r, nil
}

// Header returns the file's self-describing header.
func (r *Reader) Header() Header { return r.h }

// Version returns the file's format version (1 or 2).
func (r *Reader) Version() int { return r.version }

// Requests returns the total recorded request count, from the index
// alone.
func (r *Reader) Requests() int64 { return r.total }

// CoreRequests returns core's recorded request count, from the index
// alone.
func (r *Reader) CoreRequests(core int) int64 { return r.counts[core] }

// Close releases the underlying file when the Reader owns one
// (OpenReader). Generators built from the Reader must not be used
// afterwards.
func (r *Reader) Close() error {
	if r.closer == nil {
		return nil
	}
	return r.closer.Close()
}

// Workload wraps the Reader as a replayable Workload under the same
// replay-equivalence contract as Trace.Workload — bit-identical to the
// live run in every clock mode, panicking loudly on exhaustion — but
// streaming: each generator holds one decoded frame, so replay memory
// is the per-core frame budget, not the trace size.
func (r *Reader) Workload() (Workload, error) {
	if r.h.LineSize != LineSize {
		return Workload{}, fmt.Errorf("trace: %q recorded at %d-byte lines; the simulator uses %d",
			r.h.Name, r.h.LineSize, LineSize)
	}
	return Workload{
		Name:   r.h.Name,
		Stream: r.h.Stream,
		NewGenerator: func(coreID int, _ uint64) Generator {
			if coreID < 0 || coreID >= r.h.Cores {
				panic(fmt.Sprintf("trace: %q records %d cores; generator for core %d requested",
					r.h.Name, r.h.Cores, coreID))
			}
			return newStreamGen(r, coreID)
		},
	}, nil
}

// readIndex locates and parses a version-2 file's frame index using
// the fixed trailer, touching nothing else. It returns the frames in
// index order and the offset of the index section.
func readIndex(src io.ReaderAt, size, headerLen int64, h Header) ([]frameInfo, int64, error) {
	if size < headerLen+trailerSize {
		return nil, 0, fmt.Errorf("trace: truncated trace file (no room for the index trailer)")
	}
	var trailer [trailerSize]byte
	if _, err := src.ReadAt(trailer[:], size-trailerSize); err != nil {
		return nil, 0, fmt.Errorf("trace: truncated index trailer")
	}
	if string(trailer[8:]) != trailerMagic {
		return nil, 0, fmt.Errorf("trace: truncated or corrupt trace file (bad index trailer magic)")
	}
	indexOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	if indexOff < headerLen || indexOff > size-trailerSize {
		return nil, 0, fmt.Errorf("trace: index offset %d out of range", indexOff)
	}
	d := newDecodeState(io.NewSectionReader(src, indexOff, size-trailerSize-indexOff))
	d.off = indexOff
	tag, err := d.readByte("index section tag")
	if err != nil {
		return nil, 0, err
	}
	if tag != tagIndex {
		return nil, 0, fmt.Errorf("trace: index offset points at section tag %#x, not the index", tag)
	}
	count, err := d.uvarint("index frame count", ^uint64(0))
	if err != nil {
		return nil, 0, err
	}
	// Grow incrementally: every index entry costs at least five input
	// bytes, so a corrupt count cannot force a huge upfront allocation.
	frames := make([]frameInfo, 0, min(count, 1<<12))
	for i := uint64(0); i < count; i++ {
		f, err := readIndexEntry(d, h, headerLen, indexOff)
		if err != nil {
			return nil, 0, fmt.Errorf("%w (index entry %d)", err, i)
		}
		frames = append(frames, f)
	}
	if d.off != size-trailerSize {
		return nil, 0, fmt.Errorf("trace: trailing data between the index and the trailer")
	}
	return frames, indexOff, nil
}

// readIndexEntry decodes and bounds-checks one index entry.
func readIndexEntry(d *decodeState, h Header, headerLen, indexOff int64) (frameInfo, error) {
	core, err := d.uvarint("frame core", uint64(h.Cores)-1)
	if err != nil {
		return frameInfo{}, err
	}
	count, err := d.uvarint("frame request count", maxFrameRequests)
	if err != nil {
		return frameInfo{}, err
	}
	if count == 0 {
		return frameInfo{}, fmt.Errorf("trace: frame with zero requests")
	}
	off, err := d.uvarint("frame payload offset", uint64(indexOff))
	if err != nil {
		return frameInfo{}, err
	}
	length, err := d.uvarint("frame payload length", maxFramePayload)
	if err != nil {
		return frameInfo{}, err
	}
	if length == 0 {
		return frameInfo{}, fmt.Errorf("trace: frame with an empty payload")
	}
	flags, err := d.uvarint("frame flags", ^uint64(0))
	if err != nil {
		return frameInfo{}, err
	}
	if flags&^uint64(frameFlagDeflate) != 0 {
		return frameInfo{}, fmt.Errorf("trace: unknown frame flag bits %#x", flags&^uint64(frameFlagDeflate))
	}
	if int64(off) < headerLen || int64(off)+int64(length) > indexOff {
		return frameInfo{}, fmt.Errorf("trace: frame payload [%d, %d) outside the frame region [%d, %d)",
			off, off+length, headerLen, indexOff)
	}
	return frameInfo{
		core: int(core), count: int(count), off: int64(off), length: int(length), flags: byte(flags),
	}, nil
}

// checkTiling holds a version-2 file's frame region to its index. d
// sits right after the header; from there the frames must follow one
// another in index order with nothing between them, each in-band
// section header (tag, core, request count, flags, payload length)
// equal to its index entry, and the last frame must end where the index
// begins. Opening a Reader skips this — it reads only the index, and
// replays what the index says — but Decode reads every byte anyway, so
// it accepts exactly the files the Writer produces.
func checkTiling(d *decodeState, frames []frameInfo, indexOff int64) error {
	for i, f := range frames {
		at := d.off
		tag, err := d.readByte("section tag")
		if err != nil {
			return err
		}
		var got [4]uint64
		for j := range got {
			if got[j], err = d.uvarint("frame header", ^uint64(0)); err != nil {
				return err
			}
		}
		if tag != tagFrame || d.off != f.off ||
			got != [4]uint64{uint64(f.core), uint64(f.count), uint64(f.flags), uint64(f.length)} {
			return fmt.Errorf("trace: index entry %d does not match the section at offset %d", i, at)
		}
		if _, err := d.br.Discard(f.length); err != nil {
			return fmt.Errorf("trace: truncated frame payload at offset %d", f.off)
		}
		d.off += int64(f.length)
	}
	if d.off != indexOff {
		return fmt.Errorf("trace: unindexed data at offset %d, before the index at %d", d.off, indexOff)
	}
	return nil
}

// scanV1 validates a version-1 body while synthesizing a frame index
// over it: one frame per DefaultFrameRequests requests,
// each carrying the running line value its first delta is relative to,
// so the shared frame codec replays v1 streams unchanged.
func scanV1(d *decodeState, h Header) ([]frameInfo, error) {
	lineSize := uint64(h.LineSize)
	maxLine := maxLineFor(lineSize)
	var frames []frameInfo
	for c := 0; c < h.Cores; c++ {
		count, err := d.uvarint(fmt.Sprintf("core %d request count", c), 1<<40)
		if err != nil {
			return nil, err
		}
		prevLine := int64(0)
		var f frameInfo
		for i := uint64(0); i < count; i++ {
			if f.count == DefaultFrameRequests {
				f.length = int(d.off - f.off)
				frames = append(frames, f)
				f = frameInfo{core: c, off: d.off, baseLine: prevLine}
			} else if i == 0 {
				f = frameInfo{core: c, off: d.off}
			}
			du, err := d.uvarint("line delta", ^uint64(0))
			if err != nil {
				return nil, err
			}
			line := prevLine + unzigzag(du)
			if line < 0 || uint64(line) > maxLine {
				return nil, fmt.Errorf("trace: core %d request %d: line %d out of range", c, i, line)
			}
			meta, err := d.uvarint("request meta", ^uint64(0))
			if err != nil {
				return nil, err
			}
			if gap := meta >> 2; gap > maxTraceGap {
				return nil, fmt.Errorf("trace: core %d request %d: gap %d out of range", c, i, gap)
			}
			prevLine = line
			f.count++
		}
		if f.count > 0 {
			f.length = int(d.off - f.off)
			frames = append(frames, f)
		}
	}
	return frames, nil
}

// streamGen replays one core's recorded stream frame by frame: a fixed
// request buffer holds the current frame, refilled from the file as
// the simulator consumes it. All buffers are sized once at
// construction from the core's index (largest frame), so Next and
// refill never allocate — the generator feeds cpu.Core.Step on the
// simulator hot path. Mid-replay failures (exhaustion, I/O errors, a
// corrupt frame) panic loudly per the replay contract rather than
// silently diverging.
type streamGen struct {
	name     string
	core     int
	src      io.ReaderAt
	frames   []frameInfo
	lineSize uint64
	maxLine  uint64

	fi  int // next frame to load
	pos int
	buf []Request

	payload  []byte // on-disk frame bytes
	raw      []byte // inflated payload (compressed frames only)
	br       *bytes.Reader
	inflate  io.ReadCloser
	replayed int64
}

// newStreamGen sizes a generator for core's frames so the replay loop
// itself is allocation-free.
func newStreamGen(r *Reader, core int) *streamGen {
	frames := r.perCore[core]
	maxCount, maxLen, compressed := 0, 0, false
	for _, f := range frames {
		maxCount = max(maxCount, f.count)
		maxLen = max(maxLen, f.length)
		compressed = compressed || f.flags&frameFlagDeflate != 0
	}
	g := &streamGen{
		name:     r.h.Name,
		core:     core,
		src:      r.src,
		frames:   frames,
		lineSize: uint64(r.h.LineSize),
		maxLine:  maxLineFor(uint64(r.h.LineSize)),
		buf:      make([]Request, 0, maxCount),
		payload:  make([]byte, maxLen),
	}
	if compressed {
		// One byte past the largest legal expansion: inflateInto uses
		// the spare byte to detect decompression bombs without growing.
		g.raw = make([]byte, 20*maxCount+1)
		g.br = bytes.NewReader(nil)
		g.inflate = flate.NewReader(g.br)
	}
	return g
}

// Name implements Generator.
func (g *streamGen) Name() string { return g.name }

// Next implements Generator: it returns the next recorded request,
// refilling the frame buffer from the file when the current frame is
// consumed.
//
//impress:hotpath
func (g *streamGen) Next() Request {
	if g.pos >= len(g.buf) {
		g.refill()
	}
	req := g.buf[g.pos]
	g.pos++
	g.replayed++
	return req
}

// refill loads the next frame into the fixed buffer. Running out of
// frames and a frame that fails to load both panic: a replay must not
// silently diverge from the recording.
func (g *streamGen) refill() {
	if g.fi >= len(g.frames) {
		panic(fmt.Sprintf(
			"trace: %q core %d exhausted after %d replayed requests; re-record with a larger per-core request budget",
			g.name, g.core, g.replayed))
	}
	if err := g.load(); err != nil {
		panic(fmt.Sprintf("trace: %q core %d: frame at offset %d: %v", g.name, g.core, g.frames[g.fi].off, err))
	}
}

// load reads, inflates and decodes frame fi into the buffer, then
// moves on to the next frame. On failure it returns the error and
// leaves fi on the frame that failed. It is the one frame decoder
// behind both replay (refill) and Decode.
func (g *streamGen) load() error {
	f := g.frames[g.fi]
	p := g.payload[:f.length]
	if _, err := g.src.ReadAt(p, f.off); err != nil {
		return err
	}
	if f.flags&frameFlagDeflate != 0 {
		g.br.Reset(p)
		if err := g.inflate.(flate.Resetter).Reset(g.br, nil); err != nil {
			return err
		}
		n, err := inflateInto(g.inflate, g.raw)
		if err != nil {
			return err
		}
		p = g.raw[:n]
	}
	g.buf = g.buf[:f.count]
	if err := decodeFrameInto(p, g.buf, f.baseLine, g.lineSize, g.maxLine); err != nil {
		return err
	}
	g.fi++
	g.pos = 0
	return nil
}
