package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sampleTrace records a few representative workloads at small scale.
func sampleTrace(t *testing.T, name string, cores, perCore int) *Trace {
	t.Helper()
	w, err := WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return Record(w, cores, perCore, 1)
}

func encodeToBytes(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("encode %s: %v", tr.Name, err)
	}
	return buf.Bytes()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, name := range []string{"mcf", "copy", "mix:gcc,copy,attack:hammer", "attack:decoy"} {
		rec := sampleTrace(t, name, 3, 500)
		data := encodeToBytes(t, rec)
		got, err := Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(rec, got) {
			t.Fatalf("%s: round trip changed the trace", name)
		}
	}
}

func TestEncodingIsCompact(t *testing.T) {
	// The varint-delta encoding must exploit sequential locality: a
	// STREAM trace averages well under 4 bytes per request.
	rec := sampleTrace(t, "copy", 2, 4000)
	data := encodeToBytes(t, rec)
	if perReq := float64(len(data)) / 8000; perReq > 4 {
		t.Fatalf("copy encodes at %.1f bytes/request; delta encoding broken", perReq)
	}
}

func TestReplayMatchesLiveGenerator(t *testing.T) {
	w, err := WorkloadByName("mix:mcf,attack:manysided")
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	rec := Record(w, 2, n, 7)
	replayW, err := rec.Workload()
	if err != nil {
		t.Fatal(err)
	}
	if replayW.Name != w.Name || replayW.Stream != w.Stream {
		t.Fatalf("replay header mismatch: %q/%v vs %q/%v",
			replayW.Name, replayW.Stream, w.Name, w.Stream)
	}
	for core := 0; core < 2; core++ {
		live := w.NewGenerator(core, 7)
		replay := replayW.NewGenerator(core, 7)
		for i := 0; i < n; i++ {
			lr, rr := live.Next(), replay.Next()
			if lr != rr {
				t.Fatalf("core %d request %d: replay %+v differs from live %+v", core, i, rr, lr)
			}
		}
	}
}

func TestReplayExhaustionPanics(t *testing.T) {
	rec := sampleTrace(t, "gcc", 1, 10)
	w, err := rec.Workload()
	if err != nil {
		t.Fatal(err)
	}
	g := w.NewGenerator(0, 1)
	for i := 0; i < 10; i++ {
		g.Next()
	}
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("exhausted replay generator must panic, not silently diverge")
		}
		if msg, ok := p.(string); !ok || !strings.Contains(msg, "exhausted") {
			t.Fatalf("unhelpful exhaustion panic: %v", p)
		}
	}()
	g.Next()
}

func TestReplayRejectsForeignLineSize(t *testing.T) {
	rec := sampleTrace(t, "gcc", 1, 10)
	rec.LineSize = 128
	if _, err := rec.Workload(); err == nil {
		t.Fatal("replay must reject traces recorded at a different line size")
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	base := func() *Trace {
		return &Trace{Name: "x", LineSize: LineSize, PerCore: [][]Request{{{Addr: 64}}}}
	}
	for _, tc := range []struct {
		name string
		mut  func(*Trace)
	}{
		{"unaligned address", func(tr *Trace) { tr.PerCore[0][0].Addr = 65 }},
		{"negative gap", func(tr *Trace) { tr.PerCore[0][0].Gap = -1 }},
		{"no cores", func(tr *Trace) { tr.PerCore = nil }},
		{"zero line size", func(tr *Trace) { tr.LineSize = 0 }},
		{"huge name", func(tr *Trace) { tr.Name = strings.Repeat("n", maxTraceName+1) }},
		// Decode clamps addresses below 2^63; Encode must reject the
		// same lines or WriteFile could produce an unreadable file.
		{"address beyond 2^63", func(tr *Trace) {
			tr.LineSize = 1 << 20
			tr.PerCore[0][0].Addr = 1 << 63
		}},
	} {
		tr := base()
		tc.mut(tr)
		if err := tr.Encode(&bytes.Buffer{}); err == nil {
			t.Errorf("%s: Encode accepted an invalid trace", tc.name)
		}
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	valid := encodeToBytes(t, sampleTrace(t, "gcc", 2, 50))
	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        []byte("NOTTRC\x01"),
		"magic only":       []byte(traceMagic),
		"trailing garbage": append(append([]byte{}, valid...), 0xff),
		"bad version":      append([]byte(traceMagic), 0x7f),
	}
	// Every truncation of a valid trace must fail cleanly, never panic.
	for i := 1; i < len(valid); i += 7 {
		cases["truncated"] = valid[:len(valid)-i]
		for name, data := range cases {
			if _, err := Decode(bytes.NewReader(data)); err == nil {
				t.Fatalf("%s: Decode accepted corrupt input", name)
			}
		}
	}
}

// TestDecodeRejectsOverflowingAddress hand-crafts a header with a large
// (non-64) line size and a line index whose byte address would overflow
// uint64: the decoder must reject it rather than silently wrap — a
// wrapped address can even break lineSize alignment, violating the
// Encode ∘ Decode identity the fuzzer enforces.
func TestDecodeRejectsOverflowingAddress(t *testing.T) {
	var buf bytes.Buffer
	putU := func(v uint64) {
		var s [binary.MaxVarintLen64]byte
		buf.Write(s[:binary.PutUvarint(s[:], v)])
	}
	buf.WriteString(traceMagic)
	putU(1) // version 1: the body below is a v1 body
	putU(1)
	buf.WriteByte('x')    // name
	putU(0)               // flags
	putU(0)               // seed
	putU(1<<20 - 1)       // line size: accepted maximum, not a power of two
	putU(1)               // cores
	putU(1)               // requests
	putU(zigzag(1 << 51)) // line: in [0, maxTraceLine) but line*lineSize > 2^63
	putU(0)               // meta
	if _, err := Decode(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("line*lineSize overflowing the address space must be rejected as out of range, got %v", err)
	}
}

// FuzzDecode checks that the decoder never panics on arbitrary input and
// that anything it accepts is canonical: re-encoding a decoded trace and
// decoding again must reproduce it exactly (Encode ∘ Decode is the
// identity on the decoder's image, which subsumes round-tripping every
// canonical stream).
func FuzzDecode(f *testing.F) {
	for _, name := range []string{"mcf", "copy", "mix:gcc,copy,attack:hammer", "attack:rowpress"} {
		w, err := WorkloadByName(name)
		if err != nil {
			f.Fatal(err)
		}
		rec := Record(w, 2, 200, 1)
		var buf bytes.Buffer
		if err := rec.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// A corrupted sibling seeds the error paths.
		corrupt := append([]byte{}, buf.Bytes()...)
		corrupt[len(corrupt)/2] ^= 0x80
		f.Add(corrupt)
	}
	// The committed v1 fixtures seed the legacy decode path, and a
	// compressed small-frame recording seeds the per-frame inflate path.
	for _, fixture := range []string{"gcc.v1.trace", "corun.v1.trace"} {
		data, err := os.ReadFile(filepath.Join("testdata", "v1", fixture))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	{
		w, err := WorkloadByName("copy")
		if err != nil {
			f.Fatal(err)
		}
		rec := Record(w, 2, 700, 1)
		var buf bytes.Buffer
		tw, err := NewWriter(&buf, Header{
			Name: rec.Name, Stream: rec.Stream, Seed: rec.Seed, LineSize: rec.LineSize, Cores: 2,
		}, &WriterOptions{FrameRequests: 256, Compress: true})
		if err != nil {
			f.Fatal(err)
		}
		for c, reqs := range rec.PerCore {
			for _, req := range reqs {
				if err := tw.Append(c, req); err != nil {
					f.Fatal(err)
				}
			}
		}
		if err := tw.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(traceMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatalf("decoded trace failed to re-encode: %v", err)
		}
		again, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatal("Encode ∘ Decode is not the identity")
		}
	})
}
