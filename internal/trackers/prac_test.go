package trackers

import (
	"testing"

	"impress/internal/clm"
)

func TestPRACAlertAtThreshold(t *testing.T) {
	p := NewPRAC(100) // alert at 50
	for i := 0; i < 49; i++ {
		if rows := p.OnActivation(7, clm.One); rows != nil {
			t.Fatal("in-DRAM tracker must not mitigate inline")
		}
	}
	if len(p.alerted) != 0 {
		t.Fatal("alert fired early")
	}
	p.OnActivation(7, clm.One) // 50th crosses
	if len(p.alerted) != 1 {
		t.Fatal("alert did not fire at the threshold")
	}
	rows := p.OnRFM()
	if len(rows) != 1 || rows[0] != 7 {
		t.Fatalf("RFM serviced %v", rows)
	}
	if p.counts[7] != 0 {
		t.Fatal("serviced row's counter must reset")
	}
	if p.mitigations != 1 {
		t.Fatal("mitigation count wrong")
	}
}

func TestPRACFractionalEACT(t *testing.T) {
	// Section VI-F: PRAC + ImPress-P = per-row counter with 7 fractional
	// bits. An access worth 2.5 EACT advances the counter accordingly.
	p := NewPRAC(10) // alert at 5
	w := 2*clm.One + clm.One/2
	p.OnActivation(3, w)
	if len(p.alerted) != 0 {
		t.Fatal("2.5 < 5: no alert yet")
	}
	p.OnActivation(3, w) // 5.0 crosses
	if len(p.alerted) != 1 {
		t.Fatal("fractional accumulation failed to alert")
	}
}

func TestPRACTracksEveryRow(t *testing.T) {
	// Unlike SRAM trackers, PRAC has no entry budget: thousands of rows
	// can all be one ACT from alerting and none is evicted.
	p := NewPRAC(10) // alert at 5
	for row := int64(0); row < 10000; row++ {
		for i := 0; i < 4; i++ {
			p.OnActivation(row, clm.One)
		}
	}
	for row := int64(0); row < 10000; row++ {
		if p.counts[row] != 4*clm.One {
			t.Fatalf("row %d lost its count", row)
		}
	}
	p.OnActivation(1234, clm.One)
	if len(p.alerted) != 1 {
		t.Fatal("the crossing row must alert")
	}
}

func TestPRACMultipleAlertsOneRFM(t *testing.T) {
	p := NewPRAC(4) // alert at 2
	p.OnActivation(1, 2*clm.One)
	p.OnActivation(2, 2*clm.One)
	rows := p.OnRFM()
	if len(rows) != 2 {
		t.Fatalf("RFM should service both alerts, got %v", rows)
	}
	if p.OnRFM() != nil {
		t.Fatal("no further alerts to service")
	}
}

func TestPRACResetWindow(t *testing.T) {
	p := NewPRAC(4)
	p.OnActivation(1, 2*clm.One)
	p.ResetWindow()
	if len(p.alerted) != 0 || p.counts[1] != 0 {
		t.Fatal("window reset incomplete")
	}
}

func TestPRACStorageBits(t *testing.T) {
	// TRH=4K, alert 2K -> 11 integer bits; +7 fractional under ImPress-P.
	if got := PRACStorageBitsPerRow(4000, 0); got != 11 {
		t.Fatalf("plain PRAC bits = %d, want 11", got)
	}
	if got := PRACStorageBitsPerRow(4000, clm.FracBits); got != 18 {
		t.Fatalf("ImPress-P PRAC bits = %d, want 18", got)
	}
}

func TestPRACInterface(t *testing.T) {
	var tr Tracker = NewPRAC(4000)
	if !tr.InDRAM() || tr.Name() != "prac" {
		t.Fatal("interface metadata wrong")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("zero-weight activation must panic")
			}
		}()
		tr.OnActivation(1, 0)
	}()
}
