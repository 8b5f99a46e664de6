package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// craftFrame is one frame section of a hand-assembled version-2 file.
// index holds the frame's index entry (the offset is filled in at
// assembly); inband holds the core, request count, flags and payload
// length written in the frame's own section header, which a canonical
// file keeps equal to the index entry.
type craftFrame struct {
	index   frameInfo
	inband  [4]uint64
	payload []byte
	// unindexed leaves the frame out of the index.
	unindexed bool
	// strayBefore is written between the previous section and this one.
	strayBefore []byte
}

// splitV2 takes a Writer-produced file apart into its header bytes and
// frame sections, in file order.
func splitV2(t *testing.T, data []byte) ([]byte, []craftFrame) {
	t.Helper()
	d := newDecodeState(bytes.NewReader(data))
	if _, _, err := d.header(); err != nil {
		t.Fatal(err)
	}
	header := data[:d.off]
	var frames []craftFrame
	for {
		tag, err := d.readByte("section tag")
		if err != nil {
			t.Fatal(err)
		}
		if tag == tagIndex {
			return header, frames
		}
		var f craftFrame
		for i := range f.inband {
			if f.inband[i], err = d.uvarint("frame field", ^uint64(0)); err != nil {
				t.Fatal(err)
			}
		}
		f.payload = make([]byte, f.inband[3])
		if err := d.readFull(f.payload, "frame payload"); err != nil {
			t.Fatal(err)
		}
		f.index = frameInfo{
			core: int(f.inband[0]), count: int(f.inband[1]), flags: byte(f.inband[2]), length: len(f.payload),
		}
		frames = append(frames, f)
	}
}

// assembleV2 writes header, the frames in order, an index over the
// indexed frames (passed through reorder when it is non-nil) and the
// trailer.
func assembleV2(header []byte, frames []craftFrame, reorder func([]frameInfo)) []byte {
	var buf bytes.Buffer
	putU := func(v uint64) {
		var s [binary.MaxVarintLen64]byte
		buf.Write(s[:binary.PutUvarint(s[:], v)])
	}
	buf.Write(header)
	var index []frameInfo
	for _, f := range frames {
		buf.Write(f.strayBefore)
		buf.WriteByte(tagFrame)
		for _, v := range f.inband {
			putU(v)
		}
		e := f.index
		e.off = int64(buf.Len())
		buf.Write(f.payload)
		if !f.unindexed {
			index = append(index, e)
		}
	}
	if reorder != nil {
		reorder(index)
	}
	indexOff := buf.Len()
	buf.WriteByte(tagIndex)
	putU(uint64(len(index)))
	for _, e := range index {
		putU(uint64(e.core))
		putU(uint64(e.count))
		putU(uint64(e.off))
		putU(uint64(e.length))
		putU(uint64(e.flags))
	}
	var trailer [trailerSize]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(indexOff))
	copy(trailer[8:], trailerMagic)
	buf.Write(trailer[:])
	return buf.Bytes()
}

// TestDecodeRejectsNonCanonicalV2 pins Decode's acceptance set on
// version-2 files whose index and trailer are internally consistent but
// whose frame region is not exactly the frames the index lists: the
// frames must tile the region between the header and the index, in
// index order, each in-band frame header equal to its index entry.
func TestDecodeRejectsNonCanonicalV2(t *testing.T) {
	rec := sampleTrace(t, "mix:gcc,copy", 2, 300)
	var canon bytes.Buffer
	tw, err := NewWriter(&canon, Header{
		Name: rec.Name, Stream: rec.Stream, Seed: rec.Seed, LineSize: rec.LineSize, Cores: 2,
	}, &WriterOptions{FrameRequests: 128})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave the cores so consecutive frames belong to different
	// cores: swapping two index entries then leaves every core's frame
	// order, and so its replay, unchanged.
	for i := range rec.PerCore[0] {
		for c := range rec.PerCore {
			if err := tw.Append(c, rec.PerCore[c][i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	header, frames := splitV2(t, canon.Bytes())
	if len(frames) < 4 || frames[0].index.core == frames[1].index.core {
		t.Fatalf("want interleaved frames of both cores, got %d frames", len(frames))
	}
	if data := assembleV2(header, frames, nil); !bytes.Equal(data, canon.Bytes()) {
		t.Fatal("reassembling the canonical sections does not reproduce the Writer's file")
	}
	if _, err := Decode(bytes.NewReader(canon.Bytes())); err != nil {
		t.Fatalf("canonical file: %v", err)
	}

	edit := func(mut func([]craftFrame) []craftFrame) []craftFrame {
		cp := append([]craftFrame(nil), frames...)
		return mut(cp)
	}
	inband := func(field int, delta uint64) []craftFrame {
		return edit(func(fs []craftFrame) []craftFrame {
			fs[0].inband[field] ^= delta
			return fs
		})
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"in-band core differs from the index", assembleV2(header, inband(0, 1), nil)},
		{"in-band count differs from the index", assembleV2(header, inband(1, 1), nil)},
		{"in-band flags differ from the index", assembleV2(header, inband(2, frameFlagDeflate), nil)},
		{"in-band length differs from the index", assembleV2(header, inband(3, 1), nil)},
		{"unindexed frame", assembleV2(header, edit(func(fs []craftFrame) []craftFrame {
			extra := fs[1]
			extra.unindexed = true
			return append(fs[:2], append([]craftFrame{extra}, fs[2:]...)...)
		}), nil)},
		{"index entries out of file order", assembleV2(header, frames, func(ix []frameInfo) {
			ix[0], ix[1] = ix[1], ix[0]
		})},
		{"stray byte between two frames", assembleV2(header, edit(func(fs []craftFrame) []craftFrame {
			fs[1].strayBefore = []byte{0}
			return fs
		}), nil)},
	}
	for _, tc := range cases {
		if _, err := Decode(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: Decode accepted a non-canonical file", tc.name)
		}
	}

	// The difference from NewReader is deliberate: opening a file reads
	// only the header and the index, so a Reader accepts an in-band core
	// mismatch and replays what the index says, while Decode, which
	// reads every byte anyway, also holds the frame region to the index.
	mismatch := cases[0].data
	r, err := NewReader(bytes.NewReader(mismatch), int64(len(mismatch)))
	if err != nil {
		t.Fatalf("NewReader must open a file whose in-band core disagrees with its index: %v", err)
	}
	w, err := r.Workload()
	if err != nil {
		t.Fatal(err)
	}
	for c, reqs := range rec.PerCore {
		g := w.NewGenerator(c, rec.Seed)
		for i, want := range reqs {
			if got := g.Next(); got != want {
				t.Fatalf("core %d request %d: Reader replayed %+v, the index describes %+v", c, i, got, want)
			}
		}
	}
}
