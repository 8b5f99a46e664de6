package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// recordToFile records a workload straight to a v2 file and returns the
// path.
func recordToFile(t testing.TB, name string, cores, perCore int, seed uint64) string {
	t.Helper()
	w, err := WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.v2")
	if err := RecordFile(t.Context(), w, cores, perCore, seed, path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReaderMatchesLiveGenerator(t *testing.T) {
	const cores, perCore = 3, 9000 // > 2 frames per core
	path := recordToFile(t, "mix:mcf,copy,attack:hammer", cores, perCore, 11)
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Version() != TraceVersion {
		t.Fatalf("freshly recorded file reports version %d, want %d", r.Version(), TraceVersion)
	}
	if r.Requests() != cores*perCore {
		t.Fatalf("index counts %d requests, want %d", r.Requests(), cores*perCore)
	}
	w, err := WorkloadByName("mix:mcf,copy,attack:hammer")
	if err != nil {
		t.Fatal(err)
	}
	replayW, err := r.Workload()
	if err != nil {
		t.Fatal(err)
	}
	if replayW.Name != w.Name || replayW.Stream != w.Stream {
		t.Fatalf("replay header mismatch: %q/%v vs %q/%v", replayW.Name, replayW.Stream, w.Name, w.Stream)
	}
	for core := 0; core < cores; core++ {
		if got := r.CoreRequests(core); got != perCore {
			t.Fatalf("core %d: index counts %d requests, want %d", core, got, perCore)
		}
		live := w.NewGenerator(core, 11)
		replay := replayW.NewGenerator(core, 11)
		for i := 0; i < perCore; i++ {
			lr, rr := live.Next(), replay.Next()
			if lr != rr {
				t.Fatalf("core %d request %d: streaming replay %+v differs from live %+v", core, i, rr, lr)
			}
		}
	}
}

func TestReaderReplaysV1Fixtures(t *testing.T) {
	// Committed fixtures written by the v1 encoder before the v2 bump:
	// the streaming reader must replay them bit-identically to both the
	// materializing decoder and the live generators they were recorded
	// from.
	for _, tc := range []struct {
		file    string
		name    string
		cores   int
		perCore int
		seed    uint64
	}{
		{"gcc.v1.trace", "gcc", 2, 6000, 5},
		{"corun.v1.trace", "mix:mcf,copy,attack:hammer", 3, 400, 9},
	} {
		path := filepath.Join("testdata", "v1", tc.file)
		r, err := OpenReader(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		defer r.Close()
		if r.Version() != 1 {
			t.Fatalf("%s: fixture reports version %d, want 1", tc.file, r.Version())
		}
		h := r.Header()
		if h.Name != tc.name || h.Seed != tc.seed || h.Cores != tc.cores {
			t.Fatalf("%s: header %+v does not match the recording", tc.file, h)
		}
		if r.Requests() != int64(tc.cores*tc.perCore) {
			t.Fatalf("%s: synthesized index counts %d requests, want %d",
				tc.file, r.Requests(), tc.cores*tc.perCore)
		}
		dec, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: materializing decode: %v", tc.file, err)
		}
		w, err := WorkloadByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		replayW, err := r.Workload()
		if err != nil {
			t.Fatal(err)
		}
		for core := 0; core < tc.cores; core++ {
			live := w.NewGenerator(core, tc.seed)
			replay := replayW.NewGenerator(core, tc.seed)
			for i := 0; i < tc.perCore; i++ {
				lr, rr := live.Next(), replay.Next()
				if lr != rr {
					t.Fatalf("%s core %d request %d: streaming %+v differs from live %+v",
						tc.file, core, i, rr, lr)
				}
				if mr := dec.PerCore[core][i]; mr != rr {
					t.Fatalf("%s core %d request %d: streaming %+v differs from materialized %+v",
						tc.file, core, i, rr, mr)
				}
			}
		}
	}
}

func TestCompressedTraceRoundTrips(t *testing.T) {
	w, err := WorkloadByName("mix:gcc,attack:rowpress")
	if err != nil {
		t.Fatal(err)
	}
	const cores, perCore = 2, 1500
	rec := mustRecord(t, w, cores, perCore, 3)
	path := filepath.Join(t.TempDir(), "trace.z")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := NewWriter(f, Header{
		Name: rec.Name, Stream: rec.Stream, Seed: rec.Seed, LineSize: rec.LineSize, Cores: cores,
	}, &WriterOptions{FrameRequests: 512, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	for c, reqs := range rec.PerCore {
		for _, req := range reqs {
			if err := tw.Append(c, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Both the materializing decoder and the streaming reader must see
	// the recorded streams through the per-frame compression.
	dec, err := ReadFile(path)
	if err != nil {
		t.Fatalf("decoding compressed trace: %v", err)
	}
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	replayW, err := r.Workload()
	if err != nil {
		t.Fatal(err)
	}
	for core := 0; core < cores; core++ {
		g := replayW.NewGenerator(core, 3)
		for i := 0; i < perCore; i++ {
			want := rec.PerCore[core][i]
			if got := g.Next(); got != want {
				t.Fatalf("core %d request %d: streaming %+v, recorded %+v", core, i, got, want)
			}
			if got := dec.PerCore[core][i]; got != want {
				t.Fatalf("core %d request %d: materialized %+v, recorded %+v", core, i, got, want)
			}
		}
	}
}

func TestStreamingReplayBoundedHeap(t *testing.T) {
	// A trace well over 10x the frame-buffer budget must replay within a
	// fixed trace-side heap bound: the generator holds one decoded frame
	// (DefaultFrameRequests requests), never the stream.
	const perCore = 1 << 20 // 256 frames; ~32 MiB if materialized
	path := recordToFile(t, "copy", 1, perCore, 1)
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	replayW, err := r.Workload()
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := replayW.NewGenerator(0, 1)
	var sink uint64
	for i := 0; i < perCore; i++ {
		sink += g.Next().Addr
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g)
	if sink == 0 {
		t.Fatal("replay produced no addresses")
	}
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 4<<20 {
		t.Fatalf("streaming replay of a %d-request trace grew the heap by %d bytes; the budget is one frame (~%d requests)",
			perCore, grew, DefaultFrameRequests)
	}
}

func TestStreamingNextDoesNotAllocate(t *testing.T) {
	path := recordToFile(t, "mcf", 1, 64*1024, 1)
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	replayW, err := r.Workload()
	if err != nil {
		t.Fatal(err)
	}
	g := replayW.NewGenerator(0, 1)
	// Spans several refills: 40960 requests = 10 frames.
	if avg := testing.AllocsPerRun(40960, func() { g.Next() }); avg != 0 {
		t.Fatalf("streaming Next allocates %.2f times per request; the replay hot loop must be allocation-free", avg)
	}
}

func TestStreamingReplayExhaustionPanics(t *testing.T) {
	path := recordToFile(t, "gcc", 1, 10, 1)
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	replayW, err := r.Workload()
	if err != nil {
		t.Fatal(err)
	}
	g := replayW.NewGenerator(0, 1)
	for i := 0; i < 10; i++ {
		g.Next()
	}
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("exhausted streaming generator must panic, not silently diverge")
		}
		if msg, ok := p.(string); !ok || !strings.Contains(msg, "exhausted") {
			t.Fatalf("unhelpful exhaustion panic: %v", p)
		}
	}()
	g.Next()
}

func TestReaderRejectsCorrupt(t *testing.T) {
	path := recordToFile(t, "gcc", 2, 100, 1)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	newReaderOn := func(data []byte) error {
		_, err := NewReader(bytes.NewReader(data), int64(len(data)))
		return err
	}
	// Every truncation must fail cleanly — the trailer, the index, or
	// the header is missing or inconsistent.
	for i := 1; i < len(valid); i += 7 {
		if err := newReaderOn(valid[:len(valid)-i]); err == nil {
			t.Fatalf("NewReader accepted a trace truncated by %d bytes", i)
		}
	}
	if err := newReaderOn(valid[:len(valid)-1]); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("a chopped trailer should read as truncated, got: %v", err)
	}
	if err := newReaderOn(append(append([]byte{}, valid...), 0xff)); err == nil {
		t.Fatal("NewReader accepted trailing garbage after the trailer")
	}
	// A trailer pointing outside the file must be rejected.
	bad := append([]byte{}, valid...)
	bad[len(bad)-16] = 0xff
	if err := newReaderOn(bad); err == nil {
		t.Fatal("NewReader accepted a trailer pointing at a bogus index offset")
	}
}

func BenchmarkReplayStreaming(b *testing.B) {
	const perCore = 256 * 1024
	path := recordToFile(b, "copy", 1, perCore, 1)
	r, err := OpenReader(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	replayW, err := r.Workload()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for b.Loop() {
		g := replayW.NewGenerator(0, 1)
		for i := 0; i < perCore; i++ {
			sink += g.Next().Addr
		}
	}
	runtime.KeepAlive(sink)
}

func BenchmarkReplayMaterialized(b *testing.B) {
	const perCore = 256 * 1024
	path := recordToFile(b, "copy", 1, perCore, 1)
	b.ResetTimer()
	var sink uint64
	for b.Loop() {
		tr, err := ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		replayW, err := tr.Workload()
		if err != nil {
			b.Fatal(err)
		}
		g := replayW.NewGenerator(0, 1)
		for i := 0; i < perCore; i++ {
			sink += g.Next().Addr
		}
	}
	runtime.KeepAlive(sink)
}
