package stats

import (
	"fmt"
	"math"
	"sort"
)

// GeoMean returns the geometric mean of xs. It panics if any value is
// non-positive (the paper's performance numbers are always positive ratios)
// and returns NaN for an empty slice.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// NormalizedWeightedSpeedup returns WS(config)/WS(baseline) where both runs
// use the same per-core reference IPCs. When the reference IPCs are the
// baseline run itself (rate mode with identical copies), this reduces to the
// ratio of summed IPCs, which is how the experiment harness uses it.
func NormalizedWeightedSpeedup(ipcConfig, ipcBaseline []float64) float64 {
	if len(ipcConfig) != len(ipcBaseline) {
		panic("stats: NormalizedWeightedSpeedup length mismatch")
	}
	num, den := 0.0, 0.0
	for i := range ipcConfig {
		if ipcBaseline[i] <= 0 {
			panic("stats: non-positive baseline IPC")
		}
		num += ipcConfig[i] / ipcBaseline[i]
	}
	den = float64(len(ipcBaseline))
	return num / den
}
