package resultstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"impress/internal/sim"
)

// KindCheckpoint marks a warmup-checkpoint record (Entry.Kind); result
// records carry the empty kind, which keeps every pre-kind entry file —
// they have no kind field at all — readable as a result record.
const KindCheckpoint = "checkpoint"

// record is the on-disk JSON form of one cached entry. Spec is stored in
// full (not just its hash) so Get can reject hash collisions and `cache
// verify` can re-simulate the entry without any out-of-band state.
type record struct {
	// Format is the record layout version; readers treat any other value
	// as a miss (see FormatVersion).
	Format int `json:"format"`
	// Kind discriminates record payloads: empty for simulation results
	// (the only kind that existed before checkpoints, so legacy entries
	// decode as results), KindCheckpoint for warmup checkpoints.
	Kind string `json:"kind,omitempty"`
	// Key is the spec's content address, duplicated from the filename so
	// a renamed or mis-copied entry is detectably inconsistent. Result
	// records use Spec.Key, checkpoint records Spec.CheckpointKey.
	Key Key `json:"key"`
	// Spec is the full canonical run description (the key preimage). In
	// checkpoint records it is the reduced checkpoint spec (run budget
	// and sampling fields cleared). Attack records leave it zero and
	// carry Attack instead.
	Spec Spec `json:"spec"`
	// Attack is the security-evaluation spec (attack records only).
	Attack *AttackSpec `json:"attack,omitempty"`
	// Producer identifies the build that simulated the entry (VCS
	// revision when available). Informational only: it never invalidates
	// an entry — FormatVersion does that — but `cache stats` reports it
	// and `cache verify` prints it for mismatching entries.
	Producer string `json:"producer"`
	// Result is the cached simulation output (result records only).
	Result sim.Result `json:"result"`
	// Payload is the encoded warmup checkpoint (checkpoint records only).
	Payload []byte `json:"payload,omitempty"`
}

// Store is an on-disk, content-addressed cache of simulation results.
// One Store (or many Stores in many processes) may point at the same
// directory concurrently: entries are written atomically and readers
// treat anything unexpected as a miss.
type Store struct {
	dir      string
	producer string

	results, checkpoints, attacks kindCounters
	writeErrors                   atomic.Int64

	// mem is the memory tier: result records this handle has already
	// read from disk and validated (see get).
	mem memTier

	// afterMkdir, when non-nil, runs between writeEntry's MkdirAll and
	// its CreateTemp. Tests use it to interleave a GC sweep into the
	// write's vulnerable window deterministically; production stores
	// leave it nil.
	afterMkdir func(dir string)
}

// Counters reports what one Store handle observed (process-local, not
// persisted): Hits/Misses count Get outcomes, Writes successful Puts, and
// WriteErrors Puts that failed (the result is still returned to the
// caller; only its persistence was lost). The Checkpoint counters track
// the warmup-checkpoint cache separately — a checkpoint hit saves warmup
// simulation, not a whole run, so lumping the two would make the result
// hit rate meaningless.
type Counters struct {
	Hits, Misses, Writes, WriteErrors int64

	CheckpointHits, CheckpointMisses, CheckpointWrites int64

	// The attack counters track security-harness evaluation caching
	// (GetAttack/PutAttack), which the synthesis loop reports as its
	// simulated-vs-cached split.
	AttackHits, AttackMisses, AttackWrites int64
}

// Open returns a Store rooted at dir, creating the directory if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return &Store{dir: dir, producer: producerVersion()}, nil
}

// producerVersion identifies the running build for record provenance: the
// VCS revision (with a -dirty suffix for modified trees) when the binary
// was built from a repository, the module version otherwise.
func producerVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "-dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		return rev + modified
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	return "devel"
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// kindCounters counts one record kind's hits, misses and writes.
type kindCounters struct{ hits, misses, writes atomic.Int64 }

// counters returns the counters of a record kind.
func (st *Store) counters(kind string) *kindCounters {
	switch kind {
	case KindCheckpoint:
		return &st.checkpoints
	case KindAttack:
		return &st.attacks
	}
	return &st.results
}

// Counters returns this handle's hit/miss/write counts.
func (st *Store) Counters() Counters {
	return Counters{
		Hits:             st.results.hits.Load(),
		Misses:           st.results.misses.Load(),
		Writes:           st.results.writes.Load(),
		WriteErrors:      st.writeErrors.Load(),
		CheckpointHits:   st.checkpoints.hits.Load(),
		CheckpointMisses: st.checkpoints.misses.Load(),
		CheckpointWrites: st.checkpoints.writes.Load(),
		AttackHits:       st.attacks.hits.Load(),
		AttackMisses:     st.attacks.misses.Load(),
		AttackWrites:     st.attacks.writes.Load(),
	}
}

// path returns the entry file for a key, sharded into 256 subdirectories
// so full-sweep stores (~hundreds of entries today, unbounded with custom
// scales) never degrade into one huge directory.
func (st *Store) path(k Key) string {
	return filepath.Join(st.dir, string(k[:2]), string(k)+".json")
}

// Get returns the cached result for spec s, if present. Every failure
// mode — missing entry, unreadable file, corrupt or truncated JSON,
// format-version skew, a record whose stored spec does not match s — is a
// miss, never an error: the caller simulates and overwrites.
func (st *Store) Get(s Spec) (sim.Result, bool) {
	canon, k := s.keyed()
	rec, ok := st.get("", k, canon, nil)
	return rec.Result, ok
}

// get is the one read path behind Get, GetCheckpoint and GetAttack: it
// loads the record at key k, the address of the canonical preimage
// canon under the kind's key preamble, and accepts it only if it has
// the given kind, its stored preimage is exactly canon and — when
// payload is non-nil — its Payload decodes into payload. Anything else
// is a miss (returned as the zero record). The hit or miss is counted
// for kind.
//
// Result records are served from the handle's memory tier once a disk
// read has validated them. Get takes canon and k from the key memo, so
// a warm hit costs two map lookups and a preimage compare: no file
// read, no JSON and no hashing. Every hit returns its own copy of the
// result.
func (st *Store) get(kind string, k Key, canon []byte, payload any) (record, bool) {
	if kind == "" {
		if res, ok := st.mem.get(k, canon); ok {
			st.results.hits.Add(1)
			return record{Result: res}, true
		}
	}
	rec, ok := readRecord(st.path(k))
	ok = ok && rec.Kind == kind && string(rec.specJSON()) == string(canon) &&
		(payload == nil || json.Unmarshal(rec.Payload, payload) == nil)
	if !ok {
		st.counters(kind).misses.Add(1)
		return record{}, false
	}
	if kind == "" {
		st.mem.add(k, canon, rec.Result)
		rec.Result = cloneResult(rec.Result)
	}
	st.counters(kind).hits.Add(1)
	return rec, true
}

// memEntries bounds a handle's memory tier. It covers the whole
// QuickScale universe (282 specs) several times over at well under a
// megabyte.
const memEntries = 1024

// memTier is a handle's bounded in-process map from content address to
// a validated result record's canonical preimage and result. Entries
// enter only after a disk read validates them, never on Put, and leave
// oldest first once memEntries are held. While it holds an entry, a
// handle does not see on-disk changes to it; a new handle (`cache
// verify`, another process) reads the disk afresh.
type memTier struct {
	mu    sync.Mutex
	m     map[Key]memEntry
	order [memEntries]Key // insertion ring: order[next] is evicted first
	next  int
}

// memEntry is one memory-tier record.
type memEntry struct {
	canon []byte
	res   sim.Result
}

// get returns a copy of k's result if the tier holds k with exactly the
// preimage canon.
func (t *memTier) get(k Key, canon []byte) (sim.Result, bool) {
	t.mu.Lock()
	e, ok := t.m[k]
	t.mu.Unlock()
	if !ok || string(e.canon) != string(canon) {
		return sim.Result{}, false
	}
	return cloneResult(e.res), true
}

// add records k's validated preimage and result, evicting the oldest
// entry when the tier is full. The tier keeps res; callers hand out
// copies.
func (t *memTier) add(k Key, canon []byte, res sim.Result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[Key]memEntry, memEntries)
	}
	if _, ok := t.m[k]; !ok {
		delete(t.m, t.order[t.next])
		t.order[t.next] = k
		t.next = (t.next + 1) % memEntries
	}
	t.m[k] = memEntry{canon: canon, res: res}
}

// cloneResult deep-copies a result: its IPC slice and Estimates are
// the only state it shares by reference.
func cloneResult(r sim.Result) sim.Result {
	r.IPC = slices.Clone(r.IPC)
	if r.Estimates != nil {
		est := *r.Estimates
		r.Estimates = &est
	}
	return r
}

// specJSON returns the record's key preimage: its attack spec for
// attack records, its simulation spec otherwise, from the key memo for
// result records.
func (rec record) specJSON() []byte {
	switch rec.Kind {
	case KindAttack:
		return rec.Attack.canonicalJSON()
	case KindCheckpoint:
		return rec.Spec.canonicalJSON()
	}
	canon, _ := rec.Spec.keyed()
	return canon
}

// readRecord loads and validates one entry file; ok is false for any
// structural problem (treated by callers as a miss). Validation is
// kind-aware: each kind's key must match its own derivation, and a
// checkpoint without a payload (or an unknown kind entirely) is invalid.
func readRecord(path string) (record, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return record{}, false
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return record{}, false
	}
	if rec.Format != FormatVersion {
		return record{}, false
	}
	switch rec.Kind {
	case "":
		if rec.Key != rec.Spec.Key() || len(rec.Payload) != 0 {
			return record{}, false
		}
	case KindCheckpoint:
		if rec.Key != rec.Spec.CheckpointKey() || len(rec.Payload) == 0 {
			return record{}, false
		}
	case KindAttack:
		if rec.Attack == nil || rec.Key != rec.Attack.Key() || len(rec.Payload) == 0 {
			return record{}, false
		}
	default:
		return record{}, false
	}
	return rec, true
}

// GetCheckpoint returns the cached warmup checkpoint for spec s, if
// present. Like Get, every failure mode is a miss, never an error.
func (st *Store) GetCheckpoint(s Spec) ([]byte, bool) {
	canon := s.checkpointSpec().canonicalJSON()
	rec, ok := st.get(KindCheckpoint, keyOf(ckptPreamble, canon), canon, nil)
	return rec.Payload, ok
}

// PutCheckpoint stores the encoded warmup checkpoint for spec s. Writes
// are atomic with the same guarantees as Put.
func (st *Store) PutCheckpoint(s Spec, payload []byte) error {
	cs := s.checkpointSpec()
	return st.put(record{Kind: KindCheckpoint, Key: cs.CheckpointKey(), Spec: cs, Payload: payload}, nil)
}

// Put stores the result for spec s. The write is atomic (temp file +
// rename into place), so concurrent writers — including other processes
// sharing the directory — can only ever race to install identical
// complete entries. A failed Put loses persistence, not correctness;
// callers typically count it (Counters.WriteErrors) and continue.
func (st *Store) Put(s Spec, res sim.Result) error {
	return st.put(record{Key: s.Key(), Spec: s, Result: res}, nil)
}

// put is the one write path behind Put, PutCheckpoint and PutAttack: it
// stamps rec with the format version and producer, JSON-encodes payload
// (when non-nil) into rec.Payload, and writes the record atomically
// under rec.Key. The write or write error is counted for rec's kind.
func (st *Store) put(rec record, payload any) (err error) {
	defer func() {
		if err != nil {
			st.writeErrors.Add(1)
		} else {
			st.counters(rec.Kind).writes.Add(1)
		}
	}()
	rec.Format, rec.Producer = FormatVersion, st.producer
	if payload != nil {
		if rec.Payload, err = json.Marshal(payload); err != nil {
			return fmt.Errorf("resultstore: %w", err)
		}
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	path := st.path(rec.Key)
	err = st.writeEntry(path, rec.Key, data)
	// A concurrent GC's empty-directory sweep can remove a freshly
	// created shard directory between this writer's MkdirAll and its
	// CreateTemp. Retrying re-creates the directory, and the sweep never
	// touches a non-empty one. A GC running back to back can win that
	// window more than once, so the retry is bounded, not single.
	for retry := 0; retry < sweepRetries && errors.Is(err, fs.ErrNotExist); retry++ {
		err = st.writeEntry(path, rec.Key, data)
	}
	return err
}

// sweepRetries bounds put's retries against concurrent directory sweeps.
const sweepRetries = 8

// writeEntry performs one atomic create-temp-then-rename attempt for an
// entry file, creating its shard directory first.
func (st *Store) writeEntry(path string, k Key, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if st.afterMkdir != nil {
		st.afterMkdir(dir)
	}
	tmp, err := os.CreateTemp(dir, "."+string(k[:8])+".tmp*")
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// Entry is one readable store entry, as returned by Entries.
type Entry struct {
	// Path is the entry's file within the store.
	Path string
	// Kind is the record kind: empty for results, KindCheckpoint for
	// warmup checkpoints (which carry no Result; `cache verify` skips
	// them).
	Kind string
	// Key is the entry's content address.
	Key Key
	// Spec is the canonical run description the entry caches.
	Spec Spec
	// Producer identifies the build that simulated the entry.
	Producer string
	// Result is the cached simulation output.
	Result sim.Result
}

// Stats summarizes a store directory scan.
type Stats struct {
	// Entries is the number of valid, current-format entries.
	Entries int
	// Bytes is the total size of the valid entries' files.
	Bytes int64
	// Invalid counts files that are not loadable current-format entries:
	// corrupt JSON, version skew, key/spec mismatches, stray files. GC
	// removes exactly these.
	Invalid int
	// InvalidBytes is the total size of the invalid files.
	InvalidBytes int64
	// ByProducer counts valid entries per producing build.
	ByProducer map[string]int
}

// tempTTL is how long an in-flight temp file (a dot-prefixed name, as
// written by put before its rename) is presumed to belong to a live
// concurrent writer. Within the window, walk ignores it entirely —
// GC removing it would make that writer's atomic rename fail — and
// beyond it, the writer is dead and the orphan is reclaimable garbage.
const tempTTL = time.Hour

// walk visits every regular file in the store's entry layout, reporting
// each as a validated record or an invalid file; fresh in-flight temp
// files of concurrent writers are skipped.
func (st *Store) walk(valid func(path string, size int64, rec record), invalid func(path string, size int64)) error {
	return filepath.WalkDir(st.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil // renamed into place or removed since the directory was read
		}
		if err != nil {
			return err
		}
		if strings.HasPrefix(d.Name(), ".") && time.Since(info.ModTime()) < tempTTL {
			return nil
		}
		if rec, ok := readRecord(path); ok {
			valid(path, info.Size(), rec)
		} else {
			invalid(path, info.Size())
		}
		return nil
	})
}

// ReadStats scans the store directory and summarizes its contents.
func (st *Store) ReadStats() (Stats, error) {
	s := Stats{ByProducer: map[string]int{}}
	err := st.walk(
		func(_ string, size int64, rec record) {
			s.Entries++
			s.Bytes += size
			s.ByProducer[rec.Producer]++
		},
		func(_ string, size int64) {
			s.Invalid++
			s.InvalidBytes += size
		})
	if err != nil {
		return Stats{}, fmt.Errorf("resultstore: %w", err)
	}
	return s, nil
}

// GC removes every file under the store directory that is not a valid,
// current-format entry — corrupt records, old format versions, orphaned
// temp files — and returns how many files and bytes it reclaimed. Valid
// entries are never touched, and neither are temp files younger than
// tempTTL (they belong to concurrent writers mid-Put).
func (st *Store) GC() (removed int, freed int64, err error) {
	var paths []string
	var sizes []int64
	err = st.walk(
		func(string, int64, record) {},
		func(path string, size int64) {
			paths = append(paths, path)
			sizes = append(sizes, size)
		})
	if err != nil {
		return 0, 0, fmt.Errorf("resultstore: %w", err)
	}
	for i, p := range paths {
		if rmErr := os.Remove(p); rmErr != nil {
			return removed, freed, fmt.Errorf("resultstore: %w", rmErr)
		}
		removed++
		freed += sizes[i]
	}
	// Sweep shard directories the removals emptied (or that earlier
	// crashes left bare). os.Remove refuses non-empty directories, so
	// occupied shards pass through untouched.
	shards, err := os.ReadDir(st.dir)
	if err != nil {
		return removed, freed, fmt.Errorf("resultstore: %w", err)
	}
	for _, d := range shards {
		if d.IsDir() {
			_ = os.Remove(filepath.Join(st.dir, d.Name()))
		}
	}
	return removed, freed, nil
}

// Entries returns every valid entry in the store, sorted by key so the
// order is stable across processes (cache verify samples from it
// deterministically).
func (st *Store) Entries() ([]Entry, error) {
	var entries []Entry
	err := st.walk(
		func(path string, _ int64, rec record) {
			entries = append(entries, Entry{
				Path: path, Kind: rec.Kind, Key: rec.Key, Spec: rec.Spec,
				Producer: rec.Producer, Result: rec.Result,
			})
		},
		func(string, int64) {})
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	return entries, nil
}
