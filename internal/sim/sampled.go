package sim

import (
	"fmt"
	"math"

	"impress/internal/memctrl"
	"impress/internal/trace"
)

// Interval-sampling geometry (SMARTS-style). The run is divided into
// sampledIntervals equal periods; each period opens with a detailed
// window — simulated exactly under the event-driven clock — whose first
// quarter re-warms microarchitectural state perturbed by the preceding
// fast-forward (queues, row buffers, MSHRs) and whose remainder is
// measured. The rest of the period is functionally fast-forwarded: the
// trace advances and the LLC is warmed, but no time passes and the
// memory system sees nothing. Per-interval measurements are treated as
// i.i.d. samples and reported with t-distribution 95% confidence
// intervals.
const (
	sampledIntervals = 10
	// sampledMinPeriod is the smallest per-interval instruction budget
	// for which the detail/warm split stays meaningful; Validate rejects
	// sampled configs below sampledIntervals*sampledMinPeriod.
	sampledMinPeriod = 1_000
	// sampledDetailDiv: the detailed window is period/sampledDetailDiv.
	sampledDetailDiv = 5
	// sampledMinMeasured is the fewest measured intervals before the
	// early-stop test may trigger (a CI from 2-3 samples is noise).
	sampledMinMeasured = 4
)

// MetricEstimate is one sampled metric with its 95% confidence interval:
// Mean ± HalfWidth, RelError = HalfWidth/|Mean|.
type MetricEstimate struct {
	Mean      float64
	HalfWidth float64
	RelError  float64
}

// SampledEstimates carries the statistical summary of a ClockSampled
// run (Result.Estimates).
type SampledEstimates struct {
	// Intervals is the number of measured intervals the estimates are
	// built from (fewer than sampledIntervals when the run early-stopped).
	Intervals int
	// EarlyStopped reports that every metric's confidence interval
	// converged below Config.MaxRelError before all intervals ran.
	EarlyStopped bool `json:",omitempty"`
	// WeightedIPC estimates Result.WeightedIPCSum (the slowdown metric:
	// normalized weighted speedup is a ratio of these sums).
	WeightedIPC MetricEstimate
	// ACTsPerKilo estimates demand+mitigative DRAM activations per
	// thousand retired instructions (the Rowhammer-pressure metric).
	ACTsPerKilo MetricEstimate
}

// tTable95 holds two-sided 95% critical values of Student's t for
// degrees of freedom 1..30; beyond that the normal approximation (1.960)
// is within half a percent.
var tTable95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func tCritical(df int) float64 {
	if df <= len(tTable95) {
		return tTable95[df-1]
	}
	return 1.960
}

// estimate builds the mean and 95% confidence interval of a sample set.
// A degenerate set (one sample, or a zero mean with nonzero spread) gets
// RelError = math.MaxFloat64 — "not converged" without producing an
// Inf/NaN that JSON could not carry into the result store.
func estimate(samples []float64) MetricEstimate {
	n := len(samples)
	var sum float64
	for _, x := range samples {
		sum += x
	}
	mean := sum / float64(n)
	e := MetricEstimate{Mean: mean}
	if n < 2 {
		e.RelError = math.MaxFloat64
		return e
	}
	var ss float64
	for _, x := range samples {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	e.HalfWidth = tCritical(n-1) * sd / math.Sqrt(float64(n))
	switch {
	case mean != 0:
		e.RelError = e.HalfWidth / math.Abs(mean)
	case e.HalfWidth != 0:
		e.RelError = math.MaxFloat64
	}
	return e
}

// runSampled is the ClockSampled top-level loop. The exact-mode Result
// fields are filled with extrapolations — per-core IPC means, measured
// memory stats scaled to the full run budget — so downstream consumers
// (normalization, tables) work unchanged, and Result.Estimates carries
// the confidence intervals.
func (s *simulator) runSampled() (Result, error) {
	if err := s.warmup(); err != nil {
		return Result{}, err
	}
	period := s.cfg.RunInstructions / sampledIntervals
	detail := period / sampledDetailDiv
	warm := detail / 4
	measured := detail - warm
	gap := period - detail

	var (
		wsumSamples  []float64
		actSamples   []float64
		ipcSums      = make([]float64, len(s.cores))
		ipcSqSums    = make([]float64, len(s.cores))
		retStart     = make([]int64, len(s.cores))
		cyc0Sum      float64
		instrTotal   int64
		memSum       memctrl.Stats
		hits, misses uint64
		early        bool
		intervals    int
	)
	for k := 0; k < sampledIntervals; k++ {
		if k > 0 {
			s.fastForward(gap)
		}
		if err := s.runBudget(warm); err != nil {
			return Result{}, err
		}
		memStart := s.mc.Stats()
		hitsStart, missStart := s.llc.Hits(), s.llc.Misses()
		cyc0Start := s.cores[0].Cycles()
		for i, c := range s.cores {
			retStart[i] = c.Retired()
			c.ResetStats()
		}
		if err := s.runBudget(measured); err != nil {
			return Result{}, err
		}
		var wsum float64
		for i, c := range s.cores {
			ipc := c.IPC()
			ipcSums[i] += ipc
			ipcSqSums[i] += ipc * ipc
			wsum += ipc
		}
		// The window ends when the slowest core reaches its budget; the
		// faster cores keep executing until then, so the memory deltas
		// cover more than cores*measured instructions. Normalizing by the
		// instructions actually retired in the window — not the nominal
		// budget — is what keeps the per-instruction rates unbiased (the
		// overshoot's requests are in the numerator either way).
		var windowInstr int64
		for i, c := range s.cores {
			windowInstr += c.Retired() - retStart[i]
		}
		instrTotal += windowInstr
		d := s.mc.Stats().Sub(memStart)
		memSum.Add(d)
		hits += s.llc.Hits() - hitsStart
		misses += s.llc.Misses() - missStart
		cyc0Sum += float64(s.cores[0].FinishCycle() - cyc0Start)
		wsumSamples = append(wsumSamples, wsum)
		actSamples = append(actSamples, float64(d.DemandACTs+d.MitigativeACTs)*1000/float64(windowInstr))
		intervals = k + 1
		if s.cfg.MaxRelError > 0 && intervals >= sampledMinMeasured {
			ipcEst, actEst := estimate(wsumSamples), estimate(actSamples)
			if ipcEst.RelError <= s.cfg.MaxRelError && actEst.RelError <= s.cfg.MaxRelError {
				early = intervals < sampledIntervals
				break
			}
		}
	}

	n := float64(intervals)
	res := Result{Workload: s.cfg.Workload.Name}
	for _, sum := range ipcSums {
		res.IPC = append(res.IPC, sum/n)
		res.WeightedIPCSum += sum / n
	}
	// Extrapolate the measured memory traffic to the exact-mode run it
	// estimates. The exact run ends when its slowest core retires the
	// full budget, with faster cores free-running until then, so it spans
	// about Run/min(ipc) cycles and Run*Σipc/min(ipc) retired
	// instructions — substantially more than Run*cores for heterogeneous
	// mixes. The per-core rates that ratio needs are full-run rates, and
	// window means are noisy stand-ins: a min over noisy means is biased
	// low, which inflates the ratio for near-homogeneous co-runs whose
	// cores merely trade transient stalls. Shrinking each core's mean
	// toward the grand mean — by the fraction of the between-core spread
	// its own sampling variance accounts for — keeps the structural
	// spread of a heterogeneous mix while discarding the transient spread
	// of a homogeneous one.
	cores := len(s.cores)
	grand := res.WeightedIPCSum / float64(cores)
	var varBetween float64
	for _, m := range res.IPC {
		varBetween += (m - grand) * (m - grand)
	}
	if cores > 1 {
		varBetween /= float64(cores - 1)
	}
	shrunkSum, shrunkMin := 0.0, math.MaxFloat64
	for i, m := range res.IPC {
		w := 0.0
		if varBetween > 0 && n > 1 {
			seSq := (ipcSqSums[i] - n*m*m) / (n - 1) / n
			if seSq < 0 {
				seSq = 0
			}
			if w = 1 - seSq/varBetween; w < 0 {
				w = 0
			}
		}
		sh := grand + (m-grand)*w
		shrunkSum += sh
		if sh < shrunkMin {
			shrunkMin = sh
		}
	}
	totalInstr := float64(s.cfg.RunInstructions) * float64(cores)
	if shrunkMin > 0 && !math.IsInf(shrunkSum, 0) {
		totalInstr = float64(s.cfg.RunInstructions) / shrunkMin * shrunkSum
		res.Cycles = int64(float64(s.cfg.RunInstructions)/shrunkMin + 0.5)
	} else {
		res.Cycles = int64(cyc0Sum/n*float64(s.cfg.RunInstructions)/float64(measured) + 0.5)
	}
	res.Mem = memSum.Scale(totalInstr / float64(instrTotal))
	if hits+misses > 0 {
		res.LLCHitRate = float64(hits) / float64(hits+misses)
	}
	res.Estimates = &SampledEstimates{
		Intervals:    intervals,
		EarlyStopped: early,
		WeightedIPC:  estimate(wsumSamples),
		ACTsPerKilo:  estimate(actSamples),
	}
	return res, nil
}

// runBudget grants every core the same additional instruction budget and
// steps the system until all of them reach it.
func (s *simulator) runBudget(budget int64) error {
	for _, c := range s.cores {
		c.SetBudget(budget)
	}
	guard := 100*budget + 100_000
	start := s.cycle
	for {
		if s.cancelled() {
			return s.cancelErr()
		}
		done := true
		for _, c := range s.cores {
			if !c.Finished() {
				done = false
				break
			}
		}
		if done {
			s.wakeAll() // the caller reads the cores' clocks and resets their stats
			return nil
		}
		if s.cycle-start > guard {
			panic(fmt.Sprintf("sim: %s exceeded sampled window cycle bound (deadlock?)", s.cfg.Workload.Name))
		}
		s.advance(0)
	}
}

// quiesce force-completes every in-flight memory operation so the cores
// can be functionally fast-forwarded: outstanding line fetches fill
// immediately (in line order, for determinism), queued LLC-hit
// completions fire, and pending writebacks plus queued demand requests
// are dropped — work the skipped gap never accounts for. DRAM bank
// timing, row-buffer, defense and tracker state are left as-is; the next
// detailed window's warm-up quarter absorbs the discontinuity.
func (s *simulator) quiesce() {
	s.wakeAll() // FunctionalAdvance moves every core's stream on
	for _, line := range s.mshrs.lines() {
		s.fill(s.mshrs.get(line))
	}
	for s.hitQ.len() > 0 {
		op := s.hitQ.at(0).op
		s.hitQ.pop()
		s.complete(op)
	}
	s.pendingWB.reset() // including evictions fill() just queued
	s.mc.DropQueued()
	s.mcBusy = true
	s.epoch++
}

// fastForward advances every core n instructions in zero simulated time,
// warming the LLC with each skipped memory access (write-allocate, no
// writeback traffic) but touching nothing else.
func (s *simulator) fastForward(n int64) {
	s.quiesce()
	touch := func(addr uint64, write, uncached bool) {
		if uncached {
			return
		}
		if !s.llc.Access(addr, write) {
			s.llc.Fill(lineAddr(addr/trace.LineSize), write)
		}
	}
	for _, c := range s.cores {
		c.FunctionalAdvance(n, touch)
	}
}
