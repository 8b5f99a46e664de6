package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"impress/internal/core"
	"impress/internal/errs"
	"impress/internal/trace"
)

// sampledIPCBound and sampledACTBound are the documented accuracy of the
// sampled clock at QuickScale-like run lengths (DESIGN.md §12): the
// weighted-IPC estimate lands within 10% of the exact run, the ACT-rate
// estimate within 15% (ACTs are burstier — mitigations cluster — so the
// rate metric needs the looser bound). TestSampledErrorBounds enforces
// both; loosening them is an accuracy regression, not a test fix.
const (
	sampledIPCBound = 0.10
	sampledACTBound = 0.15
)

// sampledCases spans the benign workload behaviors that stress interval
// sampling differently: pointer-chasing (mcf), mixed compute (gcc),
// bandwidth streams (copy, add), and a heterogeneous co-run mix, with
// and without a defense in play. Adversarial (attack:) workloads are
// deliberately absent: Validate rejects them under ClockSampled, because
// the fast-forwarded gaps starve the tracker of the activation stream
// the attack exists to drive (see TestSampledRejectsAttackWorkloads).
var sampledCases = []struct {
	workload string
	kind     core.Kind
	tracker  TrackerKind
}{
	{"gcc", core.NoRP, TrackerNone},
	{"gcc", core.ImpressP, TrackerGraphene},
	{"mcf", core.ImpressP, TrackerGraphene},
	{"copy", core.ImpressN, TrackerGraphene},
	{"add", core.NoRP, TrackerNone},
	{"fotonik3d", core.ImpressP, TrackerGraphene},
	{"add_copy", core.ImpressP, TrackerGraphene},
	{"mix:mcf,gcc,copy,add", core.ImpressP, TrackerGraphene},
}

func sampledConfig(t *testing.T, workload string, kind core.Kind, tracker TrackerKind) Config {
	t.Helper()
	w, err := trace.WorkloadByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(w, core.NewDesign(kind), tracker)
	cfg.WarmupInstructions = 20_000
	cfg.RunInstructions = 100_000
	return cfg
}

// acts is the ACT metric the sampled clock estimates: demand plus
// mitigative activates.
func acts(res Result) float64 {
	return float64(res.Mem.DemandACTs + res.Mem.MitigativeACTs)
}

func relErr(est, exact float64) float64 {
	if exact == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-exact) / exact
}

// TestSampledErrorBounds validates the sampled clock against the exact
// reference: for every case, the sampled weighted-IPC and total-ACT
// estimates must land within the documented bounds of the exact run, and
// the run must report well-formed confidence intervals. The default run
// strides the case list (every other case) to keep tier-1 time bounded;
// IMPRESS_SAMPLED_VALIDATE=all runs the full universe — the CI
// sampled-validation job sets it.
func TestSampledErrorBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled validation skipped in -short mode")
	}
	stride := 2
	if os.Getenv("IMPRESS_SAMPLED_VALIDATE") == "all" {
		stride = 1
	}
	for i := 0; i < len(sampledCases); i += stride {
		tc := sampledCases[i]
		name := fmt.Sprintf("%s/%v/%s", tc.workload, tc.kind, tc.tracker)
		cfg := sampledConfig(t, tc.workload, tc.kind, tc.tracker)
		exact := mustRun(t, cfg)
		cfg.Clock = ClockSampled
		sampled := mustRun(t, cfg)

		est := sampled.Estimates
		if est == nil {
			t.Errorf("%s: sampled run reports no estimates", name)
			continue
		}
		if est.Intervals < sampledMinMeasured || est.Intervals > sampledIntervals {
			t.Errorf("%s: measured %d intervals, want %d..%d",
				name, est.Intervals, sampledMinMeasured, sampledIntervals)
		}
		if est.WeightedIPC.Mean <= 0 || est.WeightedIPC.HalfWidth < 0 {
			t.Errorf("%s: malformed IPC estimate %+v", name, est.WeightedIPC)
		}
		if e := relErr(sampled.WeightedIPCSum, exact.WeightedIPCSum); e > sampledIPCBound {
			t.Errorf("%s: sampled weighted IPC %.4f vs exact %.4f — rel. error %.2f%% exceeds the %.0f%% bound",
				name, sampled.WeightedIPCSum, exact.WeightedIPCSum, 100*e, 100*sampledIPCBound)
		}
		if e := relErr(acts(sampled), acts(exact)); e > sampledACTBound {
			t.Errorf("%s: sampled ACTs %.0f vs exact %.0f — rel. error %.2f%% exceeds the %.0f%% bound",
				name, acts(sampled), acts(exact), 100*e, 100*sampledACTBound)
		}
		t.Logf("%s: IPC err %.2f%% (CI ±%.2f%%), ACT err %.2f%% (CI ±%.2f%%), %d intervals",
			name,
			100*relErr(sampled.WeightedIPCSum, exact.WeightedIPCSum), 100*est.WeightedIPC.RelError,
			100*relErr(acts(sampled), acts(exact)), 100*est.ACTsPerKilo.RelError,
			est.Intervals)
	}
}

// TestSampledEarlyStop exercises the statistical stop: with a generous
// convergence target a steady workload must stop before exhausting its
// intervals (and never before the minimum), and the reported estimates
// must honor the target it stopped on.
func TestSampledEarlyStop(t *testing.T) {
	cfg := sampledConfig(t, "gcc", core.NoRP, TrackerNone)
	cfg.Clock = ClockSampled
	cfg.MaxRelError = 0.5
	res := mustRun(t, cfg)
	est := res.Estimates
	if est == nil {
		t.Fatal("sampled run reports no estimates")
	}
	if !est.EarlyStopped {
		t.Fatalf("gcc did not converge below a 50%% relative half-width in %d intervals: %+v",
			est.Intervals, est)
	}
	if est.Intervals < sampledMinMeasured || est.Intervals >= sampledIntervals {
		t.Fatalf("early stop after %d intervals, want %d..%d",
			est.Intervals, sampledMinMeasured, sampledIntervals-1)
	}
	if est.WeightedIPC.RelError > cfg.MaxRelError || est.ACTsPerKilo.RelError > cfg.MaxRelError {
		t.Fatalf("early stop with unconverged estimates: %+v", est)
	}
}

// TestSampledConfigValidation pins the sampled clock's input contract:
// a run budget too short to form intervals and a negative convergence
// target are typed ErrBadSpec errors.
func TestSampledConfigValidation(t *testing.T) {
	cfg := sampledConfig(t, "gcc", core.NoRP, TrackerNone)
	cfg.Clock = ClockSampled
	cfg.RunInstructions = sampledIntervals*sampledMinPeriod - 1
	if _, err := RunContext(context.Background(), cfg); !errors.Is(err, errs.ErrBadSpec) {
		t.Errorf("short sampled run: want ErrBadSpec, got %v", err)
	}
	cfg = sampledConfig(t, "gcc", core.NoRP, TrackerNone)
	cfg.Clock = ClockSampled
	cfg.MaxRelError = -0.1
	if _, err := RunContext(context.Background(), cfg); !errors.Is(err, errs.ErrBadSpec) {
		t.Errorf("negative MaxRelError: want ErrBadSpec, got %v", err)
	}
}

// TestSampledRejectsAttackWorkloads pins the adversarial exclusion: the
// fast-forwarded gaps generate no DRAM activations, so a sampled run
// would starve the tracker of the very stream an attack pattern exists
// to drive (mitigative ACTs come out ~5x low). Both bare attack
// workloads and mixes embedding one are typed ErrBadSpec errors under
// ClockSampled — and still valid under every exact mode.
func TestSampledRejectsAttackWorkloads(t *testing.T) {
	for _, name := range []string{"attack:hammer", "mix:mcf,gcc,copy,attack:hammer"} {
		cfg := sampledConfig(t, name, core.ImpressP, TrackerGraphene)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s must stay valid under the exact clocks: %v", name, err)
		}
		cfg.Clock = ClockSampled
		if _, err := RunContext(context.Background(), cfg); !errors.Is(err, errs.ErrBadSpec) {
			t.Errorf("%s under ClockSampled: want ErrBadSpec, got %v", name, err)
		}
	}
}
