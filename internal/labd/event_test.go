package labd

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"unicode/utf8"
)

// encodeOracle is what json.Encoder writes for e: the wire bytes of
// the events endpoint before the codec replaced it.
func encodeOracle(t *testing.T, e Event) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(e); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzEventCodec holds the event codec to encoding/json: appendEvent
// writes json.Encoder's bytes for any Event, every encoded event
// decodes back to itself (to json.Unmarshal's reading of it where a
// string is not valid UTF-8), parseEvent never panics, and any line it
// accepts decodes exactly as json.Unmarshal decodes it.
func FuzzEventCodec(f *testing.F) {
	type seed struct {
		e    Event
		line string
	}
	seeds := []seed{
		{Event{Seq: 0, Kind: KindState, State: StateQueued}, `{"seq":0,"kind":"state","state":"queued"}`},
		{Event{Seq: 7, Kind: "started", Spec: "mcf/impress-p/graphene", Key: "0a1b2c"}, `{"seq":7,"kind":"started","spec":"mcf/impress-p/graphene","key":"0a1b2c"}`},
		{Event{Seq: 9, Kind: "finished", Cycles: 123456}, ` { "cycles" : 1 , "cycles":123456, "seq":9,"kind":"finished" } `},
		{Event{Seq: -1, Kind: KindLagged, Dropped: 3}, `{"seq":-1,"kind":"lagged","dropped":3,"spec":null}`},
		{Event{Seq: 12, Kind: "table", Table: "fig13"}, `{"seq":12,"kind":"table","table":"fig13"}`},
		{Event{Seq: math.MaxInt64, Kind: KindState, State: StateFailed, Error: "a <b> & \"c\"\n\t\x01\x7f"}, `{"seq":9223372036854775807,"error":"😀 \ud800 \udc00x \\ \/ \b\f\r"}`},
		{Event{Seq: math.MinInt64, Kind: "x y ", Spec: "bad \xff\xfe utf8 \xe2\x28\xa1", Key: "é 日本"}, "{\"seq\":-9223372036854775808,\"kind\":\"é\xff\"}"},
		{Event{}, `{}`},
		{Event{Kind: "cache-hit"}, `{"seq":01}`},
		{Event{Kind: "cache-hit"}, `{"seq":1.5,"kind":"started"}`},
		{Event{Kind: "cache-hit"}, `{"seq":9223372036854775808}`},
		{Event{Kind: "cache-hit"}, `{"Seq":1,"unknown":[1,2]}`},
		{Event{Kind: "cache-hit"}, `{"kind":"a\'b"} trailing`},
		{Event{Kind: "cache-hit"}, "null"},
	}
	for _, s := range seeds {
		e := s.e
		f.Add(e.Seq, e.Kind, e.Spec, e.Key, e.Cycles, e.Table, string(e.State), e.Dropped, e.Error, []byte(s.line))
	}
	f.Fuzz(func(t *testing.T, seq int64, kind, spec, key string, cycles int64, table, state string,
		dropped int64, errMsg string, line []byte) {
		e := Event{Seq: seq, Kind: kind, Spec: spec, Key: key, Cycles: cycles, Table: table,
			State: JobState(state), Dropped: dropped, Error: errMsg}
		enc := appendEvent(nil, &e)
		if want := encodeOracle(t, e); !bytes.Equal(enc, want) {
			t.Fatalf("appendEvent(%+v)\n got %q\nwant %q", e, enc, want)
		}
		got, err := parseEvent(bytes.TrimSpace(enc))
		if err != nil {
			t.Fatalf("parseEvent rejected its own encoding %q: %v", enc, err)
		}
		var want Event
		if err := json.Unmarshal(enc, &want); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("parseEvent(%q) = %+v, json.Unmarshal = %+v", enc, got, want)
		}
		valid := true
		for _, s := range []string{kind, spec, key, table, state, errMsg} {
			valid = valid && utf8.ValidString(s)
		}
		if valid && got != e {
			t.Fatalf("event %+v decoded back as %+v", e, got)
		}

		got, err = parseEvent(line)
		if err != nil {
			return
		}
		want = Event{}
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("parseEvent accepted %q, which json.Unmarshal rejects: %v", line, err)
		}
		if got != want {
			t.Fatalf("parseEvent(%q) = %+v, json.Unmarshal = %+v", line, got, want)
		}
	})
}

// TestParseEventRejects pins lines outside the codec's subset, and
// malformed JSON, as errors rather than partial events.
func TestParseEventRejects(t *testing.T) {
	for _, line := range []string{
		``, `null`, `[]`, `{`, `{"seq"}`, `{"seq":}`, `{"seq":-}`, `{"seq":01}`, `{"seq":1.5}`,
		`{"seq":1e3}`, `{"seq":9223372036854775808}`, `{"seq":-9223372036854775809}`, `{"seq":"1"}`,
		`{"kind":1}`, `{"kind":true}`, `{"kind":"a\'"}`, `{"kind":"\u12"}`, "{\"kind\":\"a\x01\"}",
		`{"kind":"a"`, `{"kind":"a",}`, `{"kind":"a"} x`, `{"Kind":"a"}`, `{"other":1}`, `{"kind":nul}`,
	} {
		if e, err := parseEvent([]byte(line)); err == nil {
			t.Errorf("parseEvent(%q) = %+v, want an error", line, e)
		}
	}
}

// TestEventCodecAllocs bounds the codec's allocations on the events
// the daemon sends: encoding into a reused buffer allocates nothing,
// and parsing allocates only the spec label and the key.
func TestEventCodecAllocs(t *testing.T) {
	e := Event{Seq: 41, Kind: "cache-hit", Spec: "add_copy/impress-n/para",
		Key: "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"}
	buf := appendEvent(nil, &e)
	if n := testing.AllocsPerRun(100, func() { buf = appendEvent(buf[:0], &e) }); n != 0 {
		t.Errorf("appendEvent allocates %v times per event, want 0", n)
	}
	line := bytes.TrimSpace(buf)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := parseEvent(line); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("parseEvent allocates %v times per event, want at most 2", n)
	}
}
