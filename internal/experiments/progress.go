package experiments

import (
	"fmt"

	"impress/internal/resultstore"
	"impress/internal/sim"
)

// ProgressKind enumerates run-lifecycle events (DESIGN.md §9).
type ProgressKind int

const (
	// ProgressSpecStarted fires when a distinct simulation spec enters
	// execution — once per canonical spec, no matter how many callers
	// request it (in-memory memo repeats emit nothing).
	ProgressSpecStarted ProgressKind = iota
	// ProgressSpecCacheHit fires when the spec resolves from the
	// persistent result store without simulating.
	ProgressSpecCacheHit
	// ProgressSpecFinished fires when the spec simulates to completion;
	// the event carries the simulated cycle count.
	ProgressSpecFinished
	// ProgressTableRendered fires when one experiment table has been
	// assembled (context-aware entry points only).
	ProgressTableRendered
	// ProgressAttackStarted fires when a distinct security-harness
	// attack spec enters evaluation (Runner.Attack). Attack events use
	// their own kinds because harness evaluations are not performance
	// simulations: consumers counting simulated specs (the CLI summary
	// lines, labd's per-job counters) must not conflate the two.
	ProgressAttackStarted
	// ProgressAttackCacheHit fires when the attack spec resolves from
	// the persistent result store without evaluating.
	ProgressAttackCacheHit
	// ProgressAttackFinished fires when the attack spec evaluates to
	// completion on the harness.
	ProgressAttackFinished
)

// String returns the kind's wire/log name.
func (k ProgressKind) String() string {
	switch k {
	case ProgressSpecStarted:
		return "started"
	case ProgressSpecCacheHit:
		return "cache-hit"
	case ProgressSpecFinished:
		return "finished"
	case ProgressTableRendered:
		return "table"
	case ProgressAttackStarted:
		return "attack-started"
	case ProgressAttackCacheHit:
		return "attack-cache-hit"
	case ProgressAttackFinished:
		return "attack-finished"
	default:
		return fmt.Sprintf("ProgressKind(%d)", int(k))
	}
}

// Progress is one event on a run's progress stream. Every distinct spec
// a sweep touches emits exactly one ProgressSpecStarted followed by
// exactly one of ProgressSpecCacheHit or ProgressSpecFinished, so at any
// parallelism started == cache-hit + finished once the sweep completes;
// at Parallelism 1 the full event sequence is deterministic. Security-
// harness evaluations (Runner.Attack) follow the same started →
// cache-hit|finished lifecycle under the separate ProgressAttack*
// kinds, so simulation counters stay honest. The stream replaces
// scraping stderr for the old ad-hoc cache accounting prints.
type Progress struct {
	Kind ProgressKind
	// Spec is the human-readable simulation label
	// ("workload/design/tracker") for spec events.
	Spec string
	// Key is the canonical result-store key of the spec (spec events).
	Key string
	// Cycles is the simulated cycle count (ProgressSpecFinished only).
	Cycles int64
	// WarmupRestored reports that the run skipped warmup by restoring a
	// cached checkpoint (ProgressSpecFinished only).
	WarmupRestored bool
	// Table is the experiment ID (ProgressTableRendered only).
	Table string
}

// String renders the event as one log line.
func (p Progress) String() string {
	switch p.Kind {
	case ProgressTableRendered:
		return fmt.Sprintf("table %s rendered", p.Table)
	case ProgressSpecFinished:
		if p.WarmupRestored {
			return fmt.Sprintf("spec %s %s cycles=%d warmup=restored", p.Spec, p.Kind, p.Cycles)
		}
		return fmt.Sprintf("spec %s %s cycles=%d", p.Spec, p.Kind, p.Cycles)
	default:
		return fmt.Sprintf("spec %s %s", p.Spec, p.Kind)
	}
}

// runLabel renders the human label of a simulation's progress events:
// "workload/design/tracker", where a trace replay's workload is
// "trace:" plus its content hash prefix when the spec was derived, and
// its file path when it was not.
func runLabel(cfg sim.Config, sp resultstore.Spec) string {
	name := cfg.Workload.Name
	switch {
	case sp.TraceSHA256 != "":
		name = "trace:" + sp.TraceSHA256[:12]
	case cfg.TraceFile != "":
		name = "trace:" + cfg.TraceFile
	}
	return fmt.Sprintf("%s/%s/%s", name, cfg.Design.Name(), cfg.Tracker)
}

// emit delivers one progress event. Callbacks are serialized under a
// dedicated mutex, so a Progress func attached to a concurrent sweep
// needs no locking of its own; delivery order of events from different
// specs is scheduling-dependent above Parallelism 1.
func (r *Runner) emit(p Progress) {
	if r.Progress == nil {
		return
	}
	r.progressMu.Lock()
	defer r.progressMu.Unlock()
	r.Progress(p)
}
