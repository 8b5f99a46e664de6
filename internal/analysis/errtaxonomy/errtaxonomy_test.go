package errtaxonomy_test

import (
	"testing"

	"impress/internal/analysis"
	"impress/internal/analysis/analysistest"
	"impress/internal/analysis/errtaxonomy"
)

func TestGolden(t *testing.T) {
	az := errtaxonomy.New(errtaxonomy.Config{
		Boundary:    []string{"impress/internal/analysis/errtaxonomy/testdata/src/errfix"},
		TaxonomyPkg: "impress/internal/errs",
	})
	analysistest.Run(t, ".", []*analysis.Analyzer{az}, "./testdata/src/errfix")
}
