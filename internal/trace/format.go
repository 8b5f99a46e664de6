package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file holds the pieces of the binary trace format shared by the
// materializing codec (encode.go), the streaming Writer (writer.go) and
// the streaming Reader (reader.go): the self-describing header, the
// framed v2 container layout, and the frame payload codec. See
// DESIGN.md §7 for the byte-level specification.
//
// Version 2 splits each core's request stream into framed,
// independently-decodable chunks so a reader can replay a trace of any
// size with a fixed per-core buffer:
//
//	header (as in v1: magic, version, name, flags, seed, line size,
//	        core count)
//	sections, each opened by a one-byte tag:
//	  0x01 frame:
//	    uvarint core ID | uvarint request count (1..65536)
//	    | uvarint frame flags (bit 0 = deflate) | uvarint payload length
//	    | payload bytes
//	    The payload is the v1 per-request encoding (zigzag-uvarint line
//	    delta, uvarint meta) with frame-local deltas: the frame's first
//	    request deltas against line 0, so every frame decodes without
//	    any earlier frame.
//	  0x02 index (the final section):
//	    uvarint frame count, then per frame — in file order —
//	    uvarint core ID | uvarint request count | uvarint absolute
//	    payload offset | uvarint payload length | uvarint frame flags
//	fixed 16-byte trailer:
//	  8-byte little-endian offset of the index section's tag byte
//	  | magic "IMPTRCIX"
//
// The trailer lets a random-access reader locate the index without
// scanning the file; Decode additionally verifies that the frames tile
// the region between the header and the index exactly as the index
// lists them.

// Section tags of the v2 container.
const (
	tagFrame byte = 0x01
	tagIndex byte = 0x02
)

// trailerMagic closes every v2 trace file; the 8 bytes before it are
// the little-endian offset of the index section.
const trailerMagic = "IMPTRCIX"

// trailerSize is the fixed byte length of the v2 trailer: the 8-byte
// index offset plus the 8-byte trailer magic.
const trailerSize = 16

// DefaultFrameRequests is the per-frame request count the Writer flushes
// at (and the synthesized frame granularity for v1 files). It is the
// streaming replay buffer unit: a replay generator holds one decoded
// frame per core, so the per-core buffer budget is
// DefaultFrameRequests requests unless the recording chose another
// frame size.
const DefaultFrameRequests = 4096

// maxFrameRequests caps a single frame's request count; larger claims
// are rejected as corrupt (they would defeat the bounded-buffer
// contract).
const maxFrameRequests = 1 << 16

// maxFramePayload caps a claimed on-disk frame payload length. A
// request encodes to at most 20 bytes (two maximal uvarints), plus
// slack for deflate's worst-case stored-block expansion.
const maxFramePayload = 20*maxFrameRequests + 1024

// frameFlagDeflate marks a frame whose payload is deflate-compressed.
const frameFlagDeflate = 1

// ImportedPrefix opens the recorded name of every trace converted from
// an external capture (internal/trace/import). Imported names are not
// WorkloadByName-resolvable, so replay tooling must key imported
// replays by file content, never by name (DESIGN.md §8).
const ImportedPrefix = "import:"

// Imported reports whether a recorded trace name marks an external
// import.
func Imported(name string) bool { return strings.HasPrefix(name, ImportedPrefix) }

// MaxAddr is the exclusive upper bound on byte addresses the format
// accepts at the simulator's line size; importers fold foreign address
// spaces into [0, MaxAddr) (a multiple of LineSize, so folding
// preserves alignment).
func MaxAddr() uint64 { return (maxLineFor(LineSize) + 1) * LineSize }

// MaxGap is the largest per-request instruction gap the format accepts;
// importers clamp derived gaps to it.
func MaxGap() int64 { return maxTraceGap }

// Header is the self-describing prefix every trace file carries,
// identical across format versions 1 and 2.
type Header struct {
	// Name is the recorded workload's name: a WorkloadByName-resolvable
	// spec for recordings, or an "import:..." label for converted
	// external captures.
	Name string
	// Stream records the workload's SPEC/STREAM classification.
	Stream bool
	// Seed is the generator seed the recording used; replays adopt it
	// by default (the replay-equivalence contract).
	Seed uint64
	// LineSize is the cache-line granularity of the recorded addresses.
	LineSize int
	// Cores is the recorded core count.
	Cores int
}

// validate mirrors the decoder's header bounds, so everything a Writer
// emits is readable back.
func (h Header) validate() error {
	switch {
	case len(h.Name) > maxTraceName:
		return fmt.Errorf("trace: name longer than %d bytes", maxTraceName)
	case h.LineSize <= 0 || h.LineSize > maxTraceLineSize:
		return fmt.Errorf("trace: bad line size %d", h.LineSize)
	case h.Cores <= 0 || h.Cores > maxTraceCores:
		return fmt.Errorf("trace: core count %d outside [1, %d]", h.Cores, maxTraceCores)
	}
	return nil
}

// maxLineFor is the largest line index the format accepts at lineSize:
// within maxTraceLine, and clamped so Addr = line * lineSize stays
// below 2^63 — no uint64 overflow, and alignment survives the round
// trip for any accepted line size.
func maxLineFor(lineSize uint64) uint64 {
	return min(uint64(maxTraceLine)-1, uint64(1<<63-1)/lineSize)
}

// frameInfo locates one decodable frame: count requests for core,
// encoded in length payload bytes at absolute file offset off. For v2
// frames baseLine is 0 (frame-local deltas); for the frames a Reader
// synthesizes over a v1 stream it is the running line value the
// frame's first delta is relative to.
type frameInfo struct {
	core     int
	count    int
	off      int64
	length   int
	flags    byte
	baseLine int64
}

// Frame payload corruption sentinels. The streaming replay generator
// decodes frames on the simulator's hot path, where constructing
// formatted errors is forbidden (DESIGN.md §10); these fixed errors
// carry the diagnosis and the panic site adds the file position.
var (
	errFramePayloadTruncated = errors.New("trace: truncated frame payload")
	errFramePayloadTrailing  = errors.New("trace: trailing bytes after a frame's request count")
	errFrameLineRange        = errors.New("trace: frame line index out of range")
	errFrameGapRange         = errors.New("trace: frame gap out of range")
	errFrameInflated         = errors.New("trace: compressed frame expands beyond its request count")
)

// appendFramePayload appends the frame-local encoding of reqs to buf:
// per request a zigzag-uvarint line delta (the first request deltas
// against baseLine 0) and a uvarint meta word. The caller has already
// validated every request against the format bounds.
func appendFramePayload(buf []byte, reqs []Request, lineSize uint64) []byte {
	var scratch [binary.MaxVarintLen64]byte
	prevLine := int64(0)
	for _, req := range reqs {
		line := int64(req.Addr / lineSize)
		buf = append(buf, scratch[:binary.PutUvarint(scratch[:], zigzag(line-prevLine))]...)
		meta := uint64(req.Gap) << 2
		if req.Uncached {
			meta |= 2
		}
		if req.Write {
			meta |= 1
		}
		buf = append(buf, scratch[:binary.PutUvarint(scratch[:], meta)]...)
		prevLine = line
	}
	return buf
}

// decodeFrameInto decodes exactly len(dst) requests from payload, with
// the first line delta relative to baseLine. It must consume payload
// exactly. It runs on the replay hot path: no allocation, and failures
// come back as the fixed sentinel errors above.
func decodeFrameInto(payload []byte, dst []Request, baseLine int64, lineSize, maxLine uint64) error {
	off := 0
	prevLine := baseLine
	for i := range dst {
		du, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return errFramePayloadTruncated
		}
		off += n
		line := prevLine + unzigzag(du)
		if line < 0 || uint64(line) > maxLine {
			return errFrameLineRange
		}
		meta, n := binary.Uvarint(payload[off:])
		if n <= 0 {
			return errFramePayloadTruncated
		}
		off += n
		gap := meta >> 2
		if gap > maxTraceGap {
			return errFrameGapRange
		}
		dst[i] = Request{
			Addr:     uint64(line) * lineSize,
			Write:    meta&1 != 0,
			Uncached: meta&2 != 0,
			Gap:      int(gap),
		}
		prevLine = line
	}
	if off != len(payload) {
		return errFramePayloadTrailing
	}
	return nil
}

// inflateInto reads r (a deflate stream) to EOF into dst, returning
// the byte count. Filling dst completely without reaching EOF returns
// errFrameInflated — dst is sized one byte past the largest legal
// expansion, so a decompression bomb fails fast and allocation-free.
// Hot-path safe: the replay generator calls it per compressed frame.
func inflateInto(r io.Reader, dst []byte) (int, error) {
	n := 0
	for {
		if n >= len(dst) {
			return n, errFrameInflated
		}
		m, err := r.Read(dst[n:])
		n += m
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// decodeState wraps a buffered reader with the absolute offset of
// everything consumed through it, so the v1 scan and the v2 tiling
// check can synthesize and verify frame offsets without seeking.
type decodeState struct {
	br  *bufio.Reader
	off int64
}

// newDecodeState buffers r in at most bufio's default 4 KB, and in no
// more than the section holds.
func newDecodeState(r *io.SectionReader) *decodeState {
	return &decodeState{br: bufio.NewReaderSize(r, int(min(r.Size(), 4096)))}
}

// readFull fills p or fails with a truncation error naming what.
func (d *decodeState) readFull(p []byte, what string) error {
	n, err := io.ReadFull(d.br, p)
	d.off += int64(n)
	if err != nil {
		return fmt.Errorf("trace: truncated %s", what)
	}
	return nil
}

// readByte reads one byte or fails with a truncation error naming what.
func (d *decodeState) readByte(what string) (byte, error) {
	b, err := d.br.ReadByte()
	if err != nil {
		return 0, fmt.Errorf("trace: truncated %s", what)
	}
	d.off++
	return b, nil
}

// uvarint decodes one bounded uvarint field. Any read failure —
// truncation or a varint overflowing 64 bits — reports the field as
// truncated, matching the v1 decoder's diagnostics.
func (d *decodeState) uvarint(what string, max uint64) (uint64, error) {
	v, err := readUvarintCounted(d)
	if err != nil {
		return 0, fmt.Errorf("trace: truncated %s", what)
	}
	if v > max {
		return 0, fmt.Errorf("trace: %s %d out of range (max %d)", what, v, max)
	}
	return v, nil
}

// readUvarintCounted is binary.ReadUvarint with offset accounting.
func readUvarintCounted(d *decodeState) (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := d.br.ReadByte()
		if err != nil {
			return 0, err
		}
		d.off++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, errors.New("uvarint overflows 64 bits")
			}
			return v | uint64(b)<<shift, nil
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, errors.New("uvarint overflows 64 bits")
}

// header decodes the version-independent file header, returning it
// with the format version (1 or 2).
func (d *decodeState) header() (Header, uint64, error) {
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(d.br, magic); err != nil || string(magic) != traceMagic {
		return Header{}, 0, fmt.Errorf("trace: not a trace file (bad magic)")
	}
	d.off += int64(len(magic))
	version, err := d.uvarint("version", 1<<20)
	if err != nil {
		return Header{}, 0, err
	}
	if version != 1 && version != TraceVersion {
		return Header{}, 0, fmt.Errorf("trace: unsupported format version %d (want 1 or %d)", version, TraceVersion)
	}
	nameLen, err := d.uvarint("name length", maxTraceName)
	if err != nil {
		return Header{}, 0, err
	}
	name := make([]byte, nameLen)
	if err := d.readFull(name, "name"); err != nil {
		return Header{}, 0, err
	}
	flags, err := d.uvarint("flags", ^uint64(0))
	if err != nil {
		return Header{}, 0, err
	}
	if flags&^uint64(1) != 0 {
		return Header{}, 0, fmt.Errorf("trace: unknown flag bits %#x", flags&^uint64(1))
	}
	seed, err := d.uvarint("seed", ^uint64(0))
	if err != nil {
		return Header{}, 0, err
	}
	lineSize, err := d.uvarint("line size", maxTraceLineSize)
	if err != nil {
		return Header{}, 0, err
	}
	if lineSize == 0 {
		return Header{}, 0, fmt.Errorf("trace: zero line size")
	}
	cores, err := d.uvarint("core count", maxTraceCores)
	if err != nil {
		return Header{}, 0, err
	}
	if cores == 0 {
		return Header{}, 0, fmt.Errorf("trace: zero core count")
	}
	return Header{
		Name:     string(name),
		Stream:   flags&1 != 0,
		Seed:     seed,
		LineSize: int(lineSize),
		Cores:    int(cores),
	}, version, nil
}
