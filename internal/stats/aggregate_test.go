package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestGeoMeanBasics(t *testing.T) {
	if got := GeoMean([]float64{4, 9}); !almostEqual(got, 6, 1e-12) {
		t.Fatalf("GeoMean(4,9) = %v, want 6", got)
	}
	if got := GeoMean([]float64{5}); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("GeoMean(5) = %v, want 5", got)
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Fatal("GeoMean(nil) should be NaN")
	}
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

// Property: the geometric mean lies between min and max, and scaling all
// inputs by c scales the mean by c.
func TestGeoMeanProperties(t *testing.T) {
	r := NewRand(1)
	f := func(n uint8) bool {
		k := int(n%10) + 1
		xs := make([]float64, k)
		for i := range xs {
			xs[i] = 0.1 + 10*r.Float64()
		}
		g := GeoMean(xs)
		if g < slices.Min(xs)-1e-9 || g > slices.Max(xs)+1e-9 {
			return false
		}
		const c = 3.5
		scaled := make([]float64, k)
		for i := range xs {
			scaled[i] = c * xs[i]
		}
		return almostEqual(GeoMean(scaled), c*g, 1e-9*c*g+1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Mean(xs); !almostEqual(got, 2.75, 1e-12) {
		t.Fatalf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("the mean of an empty slice should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Must not modify input.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestNormalizedWeightedSpeedupIdentity(t *testing.T) {
	ipc := []float64{1.1, 0.4, 2.2, 0.9}
	if got := NormalizedWeightedSpeedup(ipc, ipc); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("self-normalized speedup = %v, want 1", got)
	}
}

func TestNormalizedWeightedSpeedupHalf(t *testing.T) {
	base := []float64{2, 2}
	cfg := []float64{1, 1}
	if got := NormalizedWeightedSpeedup(cfg, base); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("got %v, want 0.5", got)
	}
}
