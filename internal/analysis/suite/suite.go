// Package suite instantiates the impress-lint analyzers with this
// repository's frozen configuration: the deterministic-output packages,
// the context-first boundary and its allowlists, the error-taxonomy
// boundary, the hot-path directive, and the perfbench module whose
// references keep internal exports alive. cmd/impress-lint (standalone
// and go vet -vettool modes) runs exactly this suite; the analyzer
// packages themselves stay repo-agnostic.
package suite

import (
	"impress/internal/analysis"
	"impress/internal/analysis/ctxfirst"
	"impress/internal/analysis/deadexport"
	"impress/internal/analysis/determinism"
	"impress/internal/analysis/errtaxonomy"
	"impress/internal/analysis/hotpath"
)

// StrictPkgs are the packages whose entire output is contractually
// bit-identical across runs, clock modes, parallelism and replay
// (DESIGN.md §4, §7, §8): wall-clock reads, the global random source
// and unsorted directory listings are forbidden there outright.
var StrictPkgs = []string{
	"impress/internal/sim",
	"impress/internal/experiments",
	"impress/internal/trace",
	"impress/internal/resultstore",
}

// WallclockOK are the reviewed maintenance paths inside strict packages
// that may read the wall clock because their reads can never reach
// simulation output. Additions take the same review bar as a ctxfirst
// allowlist entry.
var WallclockOK = []string{
	// The store's directory walk ages in-flight temp files (tempTTL)
	// to decide what GC may reclaim; cache hygiene, not results.
	"impress/internal/resultstore.Store.walk",
}

// legacyNoCtx lists the pure constructors, converters and calculators
// exported from package impress: they perform no run work, so they need
// no context. Everything else exported there must take a
// context.Context as its first parameter.
//
// Do NOT add a run-performing entry point here: give it a ctx (or hang
// it off Lab). This list only grows for pure constructors/converters
// with a review note in the PR, and every entry must name an exported
// function of package impress (TestLegacyNoCtxNamesLiveFunctions).
var legacyNoCtx = []string{
	// Pure constructors, converters and calculators: no run to cancel.
	"NewModel", "NewEACTCalculator", "FracBitsEffectiveThreshold",
	"DDR5", "Ns", "NewDesign", "NewBankPolicy",
	"NewRand", "NewGraphene", "NewPARA", "NewMithril",
	"NewMINT", "MINTToleratedTRH", "NewPRAC",
	// Zoo-extension trackers (adversarial-synthesis PR): pure
	// constructors like the trackers above.
	"NewHydra", "NewABACuS",
	// Attack-zoo locators (same PR): a path computation and a manifest
	// directory listing — no run to cancel.
	"DefaultAttackZooDir", "AttackZooEntries",
	"StorageComparison", "MINTStorageBytes",
	"Workloads", "WorkloadByName", "MixWorkloads",
	"DecodeTrace", "ReadTraceFile", "OpenTraceReader", "DefaultSimConfig",
	"OpenResultStore", "ResultSpecFor",
	"QuickScale", "StandardScale", "FullScale",

	// Lab construction and options. WithMaxRelError is a pure option
	// constructor for the sampled clock: it records configuration, and
	// the runs it shapes go through the ctx-first Lab methods.
	"NewLab", "WithStore", "WithResultStore",
	"WithParallelism", "WithClock", "WithProgress",
	"WithMaxRelError",
	"ExperimentsOnly", "ExperimentsAnalytical", "ExperimentsOnTable",

	// Sweep-service client construction (PR 8 review): a pure
	// constructor — it opens no connection and performs no run work;
	// every SweepClient method takes ctx first.
	"NewSweepClient",
}

// Analyzers returns the full impress-lint suite with the repository
// configuration applied.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		determinism.New(determinism.Config{
			StrictPkgs:  StrictPkgs,
			WallclockOK: WallclockOK,
		}),
		ctxfirst.New(ctxfirst.Config{
			Packages:     []string{"impress"},
			AllowFuncs:   legacyNoCtx,
			RunTypes:     []string{"Lab"},
			AllowMethods: []string{"Lab.Store"},
		}),
		errtaxonomy.New(errtaxonomy.Config{
			Boundary:    []string{"impress"},
			TaxonomyPkg: "impress/internal/errs",
		}),
		hotpath.New(),
		deadexport.New(deadexport.Config{Extra: []string{"perfbench"}}),
	}
}
