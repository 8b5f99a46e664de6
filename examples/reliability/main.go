// This example runs the Monte-Carlo reliability analysis behind the
// paper's probabilistic-tracker provisioning (Section III-B targets a
// 0.1 FIT bank-failure rate): the distribution of peak victim damage for
// PARA under Rowhammer and Row-Press, without and with ImPress-P.
//
// The trials run through impress.MonteCarlo, which like every run entry
// point takes a context first and returns typed errors.
//
// Run with: go run ./examples/reliability
package main

import (
	"context"
	"fmt"
	"log"

	"impress"
)

const (
	trh    = 4000
	trials = 25
)

func main() {
	ctx := context.Background()
	tm := impress.DDR5()
	seededPARA := impress.SeededTrackerFactory(
		func(trackerTRH float64, seed uint64) impress.AttackTrackerFactory {
			return func(float64) impress.Tracker {
				return impress.NewPARA(trackerTRH, impress.NewRand(seed))
			}
		})

	scenarios := []struct {
		name    string
		design  impress.Design
		pattern func() impress.AttackPattern
	}{
		{"PARA, Rowhammer", impress.NewDesign(impress.NoRP),
			func() impress.AttackPattern {
				return &impress.RowhammerPattern{Row: 1 << 20, Timings: tm}
			}},
		{"PARA, Row-Press (no defense)", impress.NewDesign(impress.NoRP),
			func() impress.AttackPattern {
				return &impress.RowPressPattern{Row: 1 << 20, TON: tm.TREFI, Timings: tm}
			}},
		{"PARA, Row-Press + ImPress-P", impress.NewDesign(impress.ImpressP),
			func() impress.AttackPattern {
				return &impress.RowPressPattern{Row: 1 << 20, TON: tm.TREFI, Timings: tm}
			}},
	}

	fmt.Printf("%-32s %-10s %-10s %-10s %s\n", "scenario", "median", "p99", "max", "failures")
	for i, sc := range scenarios {
		cfg := impress.AttackConfig{
			Design:    sc.design,
			DesignTRH: trh,
			AlphaTrue: impress.AlphaLongDuration,
			Duration:  tm.TREFW / 4, // quarter-window trials keep this quick
		}
		res, err := impress.MonteCarlo(ctx, cfg, sc.pattern, seededPARA, trials, uint64(100+i))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-32s %-10.0f %-10.0f %-10.0f %d/%d\n",
			sc.name,
			res.DamagePercentile(50), res.DamagePercentile(99), res.MaxDamage,
			res.Failures, res.Trials)
	}
	fmt.Printf("\nfailure = peak damage >= TRH (%d). The paper provisions PARA's\n", trh)
	fmt.Println("selection probability (1/184 at TRH=4K) for a 0.1 FIT target; Row-Press")
	fmt.Println("voids that analysis unless ImPress converts the open time into EACTs.")
}
