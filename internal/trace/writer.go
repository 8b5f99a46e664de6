package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// WriterOptions tunes a streaming trace Writer. The zero value (or a
// nil *WriterOptions) selects the defaults.
type WriterOptions struct {
	// FrameRequests is the per-frame request count: how many requests
	// of one core accumulate before a frame is flushed, and therefore
	// the per-core buffer budget a streaming replay of the file needs.
	// 0 means DefaultFrameRequests; the cap is 65536.
	FrameRequests int
	// Compress deflate-compresses every frame payload (frame flag
	// bit 0). Compressed traces cost a per-frame inflate on replay.
	Compress bool
}

// Writer streams a multi-core request stream into a version-2 trace
// file without ever materializing it: the header goes out immediately,
// each core's requests accumulate into at most one pending frame
// (flushed when full), and Close writes the remaining partial frames,
// the frame index and the trailer. Memory is bounded by
// cores x FrameRequests regardless of how many requests are appended.
//
// A Writer validates every request against the same bounds the decoder
// enforces, so everything it writes is readable back. Errors are
// sticky: after a failed Append or a write error every later call
// returns the same error, and Close will not produce a valid file.
type Writer struct {
	bw   *bufio.Writer
	h    Header
	opts WriterOptions

	// off is the absolute file offset of the next byte written; frame
	// offsets and the index derive from it, so the Writer needs no
	// seeking and dst can be any io.Writer.
	off     int64
	maxLine uint64

	pending [][]Request // one pending frame per core
	written []int64     // appended request count per core (diagnostics)
	frames  []frameInfo

	payload []byte // frame payload scratch
	comp    bytes.Buffer
	fw      *flate.Writer

	err    error
	closed bool
}

// NewWriter writes the version-2 header for h to dst and returns the
// streaming Writer for its frames. opts may be nil for defaults.
func NewWriter(dst io.Writer, h Header, opts *WriterOptions) (*Writer, error) {
	if err := h.validate(); err != nil {
		return nil, err
	}
	o := WriterOptions{}
	if opts != nil {
		o = *opts
	}
	if o.FrameRequests == 0 {
		o.FrameRequests = DefaultFrameRequests
	}
	if o.FrameRequests < 0 || o.FrameRequests > maxFrameRequests {
		return nil, fmt.Errorf("trace: frame request count %d outside [1, %d]", o.FrameRequests, maxFrameRequests)
	}
	w := &Writer{
		bw:      bufio.NewWriter(dst),
		h:       h,
		opts:    o,
		maxLine: maxLineFor(uint64(h.LineSize)),
		pending: make([][]Request, h.Cores),
		written: make([]int64, h.Cores),
	}
	w.writeString(traceMagic)
	w.writeUvarint(TraceVersion)
	w.writeUvarint(uint64(len(h.Name)))
	w.writeString(h.Name)
	var flags uint64
	if h.Stream {
		flags |= 1
	}
	w.writeUvarint(flags)
	w.writeUvarint(h.Seed)
	w.writeUvarint(uint64(h.LineSize))
	w.writeUvarint(uint64(h.Cores))
	return w, w.err
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.bw.Write(p)
	w.off += int64(len(p))
}

func (w *Writer) writeString(s string) {
	if w.err != nil {
		return
	}
	_, w.err = w.bw.WriteString(s)
	w.off += int64(len(s))
}

func (w *Writer) writeByte(b byte) {
	if w.err != nil {
		return
	}
	w.err = w.bw.WriteByte(b)
	w.off++
}

func (w *Writer) writeUvarint(v uint64) {
	var scratch [binary.MaxVarintLen64]byte
	w.write(scratch[:binary.PutUvarint(scratch[:], v)])
}

// Append adds one request to core's stream, flushing a frame when the
// core's pending buffer reaches the configured frame size.
func (w *Writer) Append(core int, req Request) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("trace: Append on a closed Writer")
	}
	if core < 0 || core >= w.h.Cores {
		return fmt.Errorf("trace: core %d outside the header's %d cores", core, w.h.Cores)
	}
	if err := w.validateRequest(core, req); err != nil {
		w.err = err
		return err
	}
	buf := append(w.pending[core], req)
	w.pending[core] = buf
	w.written[core]++
	if len(buf) >= w.opts.FrameRequests {
		w.flushCore(core)
	}
	return w.err
}

// validateRequest mirrors the decoder's per-request bounds exactly
// (including the 2^63 address clamp), so everything the Writer accepts
// is readable back.
func (w *Writer) validateRequest(core int, req Request) error {
	lineSize := uint64(w.h.LineSize)
	if req.Addr%lineSize != 0 {
		return fmt.Errorf("trace: core %d request %d: address %#x not %d-byte aligned",
			core, w.written[core], req.Addr, w.h.LineSize)
	}
	if line := req.Addr / lineSize; line > w.maxLine {
		return fmt.Errorf("trace: core %d request %d: line %#x out of range", core, w.written[core], line)
	}
	if req.Gap < 0 || int64(req.Gap) > maxTraceGap {
		return fmt.Errorf("trace: core %d request %d: gap %d out of range", core, w.written[core], req.Gap)
	}
	return nil
}

// flushCore writes core's pending requests as one frame.
func (w *Writer) flushCore(core int) {
	reqs := w.pending[core]
	if w.err != nil || len(reqs) == 0 {
		return
	}
	w.payload = appendFramePayload(w.payload[:0], reqs, uint64(w.h.LineSize))
	payload := w.payload
	flags := byte(0)
	if w.opts.Compress {
		w.comp.Reset()
		if w.fw == nil {
			// BestSpeed: replay inflates every frame it touches; trading
			// a few percent of ratio for decode throughput is the right
			// default for a format meant to stream.
			w.fw, _ = flate.NewWriter(&w.comp, flate.BestSpeed)
		} else {
			w.fw.Reset(&w.comp)
		}
		if _, err := w.fw.Write(payload); err != nil {
			w.err = err
			return
		}
		if err := w.fw.Close(); err != nil {
			w.err = err
			return
		}
		payload = w.comp.Bytes()
		flags = frameFlagDeflate
	}
	w.writeByte(tagFrame)
	w.writeUvarint(uint64(core))
	w.writeUvarint(uint64(len(reqs)))
	w.writeUvarint(uint64(flags))
	w.writeUvarint(uint64(len(payload)))
	off := w.off
	w.write(payload)
	w.frames = append(w.frames, frameInfo{
		core: core, count: len(reqs), off: off, length: len(payload), flags: flags,
	})
	w.pending[core] = reqs[:0]
}

// Close flushes every partial frame, writes the frame index and the
// trailer, and flushes the underlying writer. It does not close dst.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	for core := range w.pending {
		w.flushCore(core)
	}
	w.closed = true
	indexOff := w.off
	w.writeByte(tagIndex)
	w.writeUvarint(uint64(len(w.frames)))
	for _, f := range w.frames {
		w.writeUvarint(uint64(f.core))
		w.writeUvarint(uint64(f.count))
		w.writeUvarint(uint64(f.off))
		w.writeUvarint(uint64(f.length))
		w.writeUvarint(uint64(f.flags))
	}
	var trailer [trailerSize]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(indexOff))
	copy(trailer[8:], trailerMagic)
	w.write(trailer[:])
	if w.err == nil {
		w.err = w.bw.Flush()
	}
	return w.err
}

// RecordTo streams cores x perCore requests of w (seeded exactly as a
// live simulation would seed them) into dst as a version-2 trace,
// without materializing the streams: memory is bounded by the frame
// buffers regardless of perCore. Validation failures return
// errs.ErrBadSpec and ctx is polled every few thousand requests
// (errs.ErrCancelled), as in RecordContext.
func RecordTo(ctx context.Context, w Workload, cores, perCore int, seed uint64, dst io.Writer) error {
	var tw *Writer
	err := record(ctx, w, cores, perCore, seed, func(h Header) (func(int, Request) error, error) {
		var err error
		tw, err = NewWriter(dst, h, nil)
		if err != nil {
			return nil, err
		}
		return tw.Append, nil
	})
	if err != nil {
		return err
	}
	return tw.Close()
}

// RecordFile is RecordTo onto a freshly created file at path. On any
// failure the partial file is removed.
func RecordFile(ctx context.Context, w Workload, cores, perCore int, seed uint64, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := RecordTo(ctx, w, cores, perCore, seed, f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}
