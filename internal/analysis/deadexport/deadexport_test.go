package deadexport_test

import (
	"testing"

	"impress/internal/analysis"
	"impress/internal/analysis/analysistest"
	"impress/internal/analysis/deadexport"
)

const fixture = "impress/internal/analysis/deadexport/testdata/src/deadfix"

func analyzer() *analysis.Analyzer {
	return deadexport.New(deadexport.Config{Root: fixture})
}

func TestGolden(t *testing.T) {
	analysistest.Run(t, ".", []*analysis.Analyzer{analyzer()}, "./testdata/src/deadfix/...")
}

// TestPartialLoadReportsNothing checks that a load missing part of the
// tree, as a narrow pattern or the per-package vet driver gives, yields
// no diagnostic: a reference could sit in a package it did not load.
// Without cmd/tool, lib.ForTool would look dead.
func TestPartialLoadReportsNothing(t *testing.T) {
	for _, patterns := range [][]string{
		{"./testdata/src/deadfix", "./testdata/src/deadfix/internal/..."},
		{"./testdata/src/deadfix/internal/..."},
	} {
		pkgs, err := analysis.Load(".", patterns...)
		if err != nil {
			t.Fatal(err)
		}
		diags, _, err := analysis.Run(pkgs, []*analysis.Analyzer{analyzer()})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%v: unexpected diagnostic on a partial load: %s", patterns, d)
		}
	}
}
