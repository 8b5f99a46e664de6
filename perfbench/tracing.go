package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the program:
// labd client calls, Lab.Run, the synthesis evaluator, the security
// harness and result-store Get/Put. Spans stay in memory until the run
// ends. A nil *tracer records nothing, so untraced passes share the code
// path at the cost of one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

// span is one recorded interval; Parent is 0 for a root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// durations returns the durations of every closed span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// duration returns the length of the closed span id.
func (t *tracer) duration(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return s.End - s.Start
}

// selfTime sums, over the spans named name, each span's duration minus
// the part its children cover.
func (t *tracer) selfTime(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var self time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			self += s.End - s.Start - child[s.ID]
		}
	}
	return self
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// saveSpans writes the traced pass's spans next to the build output, so
// they outlive the run's scratch directory.
func saveSpans(o *options, tr *tracer) {
	path := filepath.Join(filepath.Dir(o.work), fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
}

func medianMs(ds []time.Duration) float64 { return quantile(msAll(ds), 0.5) }

// cpuProfile samples the whole process while the traced pass runs.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(o *options) (*cpuProfile, error) {
	p := &cpuProfile{path: filepath.Join(o.work, "cpu.pprof")}
	f, err := os.Create(p.path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.f = f
	return p, nil
}

// cpuShareLayers are the packages whose flat CPU time the traced run
// reports as <layer>.cpu_share.
var cpuShareLayers = []string{
	"labd", "experiments", "resultstore", "sim", "cpu", "cache", "memctrl", "dram",
	"core", "clm", "trackers", "trace", "security", "attack", "synth",
}

// gcRoots are the runtime functions under which garbage-collector work
// runs: background marking, mutator assists and background sweeping.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep"}

// stop ends sampling and reports each layer's share of the sampled CPU
// time, grouped by package from `go tool pprof -top`.
func (p *cpuProfile) stop(rep *report) error {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", p.path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	shares, gc, err := packageShares(out)
	if err != nil {
		return err
	}
	for _, layer := range cpuShareLayers {
		rep.set(layer+".cpu_share", shares[layer])
	}
	rep.set("runtime.gc_share", gc)
	return nil
}

// packageShares parses `go tool pprof -top` output into each
// impress/internal package's share of total samples (flat time, so the
// shares are disjoint) and the garbage collector's share (cumulative
// time under gcRoots).
func packageShares(top []byte) (map[string]float64, float64, error) {
	var total float64
	flat := map[string]float64{}
	var gc float64
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "% of "); i >= 0 && strings.HasSuffix(line, " total") {
			f := strings.Fields(line[i+len("% of "):])
			d, err := parseDuration(f[0])
			if err != nil {
				return nil, 0, err
			}
			total = d
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		flatD, err1 := parseDuration(f[0])
		cumD, err2 := parseDuration(f[3])
		if err1 != nil || err2 != nil {
			continue
		}
		fn := strings.Join(f[5:], " ")
		for _, root := range gcRoots {
			if fn == root {
				gc += cumD
			}
		}
		if rest, ok := strings.CutPrefix(fn, "impress/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			flat[pkg] += flatD
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if total == 0 {
		return map[string]float64{}, 0, nil
	}
	for k, v := range flat {
		flat[k] = v / total
	}
	return flat, gc / total, nil
}

// parseDuration reads a pprof duration such as "1.25s", "30ms" or
// "0"; units follow time.ParseDuration.
func parseDuration(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		// pprof prints whole minutes and hours as e.g. "1.50mins".
		if v, ok := strings.CutSuffix(s, "mins"); ok {
			m, err := strconv.ParseFloat(v, 64)
			return m * 60, err
		}
		return 0, err
	}
	return d.Seconds(), nil
}
