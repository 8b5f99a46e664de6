package trackers

import (
	"testing"

	"impress/internal/clm"
	"impress/internal/stats"
)

// Component microbenchmarks: per-activation cost of each tracker. These
// bound the simulation overhead of the tracking layer and document the
// relative hardware complexity ordering (PARA < MINT < PRAC < Graphene ~
// Mithril).

func BenchmarkGrapheneOnActivation(b *testing.B) {
	g := NewGraphene(4000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.OnActivation(int64(i%1024), clm.One)
	}
}

func BenchmarkGrapheneAdversarialSpread(b *testing.B) {
	// Worst case: more distinct rows than entries, constant eviction.
	g := NewGraphene(4000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.OnActivation(int64(i), clm.One)
	}
}

// BenchmarkNewGraphene reports the footprint (B/op) of one per-bank
// Graphene at TRH = 4K (448 entries); the simulator builds one per bank.
func BenchmarkNewGraphene(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewGraphene(4000)
	}
}

func BenchmarkPARAOnActivation(b *testing.B) {
	p := NewPARA(4000, stats.NewRand(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.OnActivation(int64(i%1024), clm.One)
	}
}

func BenchmarkMithrilOnActivation(b *testing.B) {
	m := NewMithril(4000, 80)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.OnActivation(int64(i%1024), clm.One)
	}
}

func BenchmarkMithrilRFM(b *testing.B) {
	m := NewMithril(4000, 80)
	for i := 0; i < 4096; i++ {
		m.OnActivation(int64(i%512), clm.One)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.OnActivation(int64(i%512), clm.One)
		if i%80 == 79 {
			m.OnRFM()
		}
	}
}

func BenchmarkMithrilAdversarialSpread(b *testing.B) {
	// Every activation evicts; an RFM every 80 mitigates the maximum.
	m := NewMithril(4000, 80)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.OnActivation(int64(i), clm.One)
		if i%80 == 79 {
			m.OnRFM()
		}
	}
}

func BenchmarkABACuSAdversarialSpread(b *testing.B) {
	a := NewABACuS(4000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.OnActivation(int64(i), clm.One)
	}
}

func BenchmarkMINTOnActivation(b *testing.B) {
	m := NewMINT(80, stats.NewRand(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.OnActivation(int64(i%1024), clm.One)
		if i%80 == 79 {
			m.OnRFM()
		}
	}
}

func BenchmarkPRACOnActivation(b *testing.B) {
	p := NewPRAC(4000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.OnActivation(int64(i%65536), clm.One)
	}
}
