package analysis

import (
	"encoding/json"
	"fmt"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// unitConfig is the JSON configuration cmd/go passes to a -vettool for
// one compilation unit (the same schema golang.org/x/tools'
// unitchecker consumes; unused fields are ignored).
type unitConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ModulePath                string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunUnit implements the go vet -vettool protocol for one compilation
// unit: it loads the unit described by cfgFile, runs the analyzers over
// it, prints diagnostics to w, writes the (empty) facts file cmd/go
// expects, and returns the number of diagnostics.
//
// Under this driver each package is analyzed in isolation, so
// whole-module analyzers see ModulePkgs = [the unit]: hotpath's callee
// walk stops at package boundaries (DESIGN.md §10 recommends the
// standalone `impress-lint ./...` mode for full coverage).
func RunUnit(cfgFile string, analyzers []*Analyzer, w io.Writer) (int, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return 0, err
	}
	var cfg unitConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("parsing vet config %s: %w", cfgFile, err)
	}
	// cmd/go requires the facts file to exist even though impress-lint
	// records no cross-unit facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return 0, err
		}
	}
	if cfg.VetxOnly {
		return 0, nil
	}

	// cmd/go vets a package together with its tests; the standalone
	// loader analyzes non-test files only, and so does vet mode, so
	// both modes report on the same files. An external test package has
	// nothing left to analyze.
	var files []string
	for _, name := range cfg.GoFiles {
		if !strings.HasSuffix(name, "_test.go") {
			files = append(files, name)
		}
	}
	if len(files) == 0 {
		return 0, nil
	}

	fset := token.NewFileSet()
	pkg := &Package{
		PkgPath:  cfg.ImportPath,
		Dir:      cfg.Dir,
		Fset:     fset,
		InModule: true,
		Module:   cfg.ModulePath,
		Root:     true,
	}
	for _, name := range files {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		file, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0, nil
			}
			return 0, err
		}
		pkg.Syntax = append(pkg.Syntax, file)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, compilerName(cfg.Compiler), lookup)}
	if cfg.GoVersion != "" {
		conf.GoVersion = cfg.GoVersion
	}
	pkg.TypesInfo = newTypesInfo()
	tpkg, err := conf.Check(cfg.ImportPath, fset, pkg.Syntax, pkg.TypesInfo)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, fmt.Errorf("typecheck %s: %w", cfg.ImportPath, err)
	}
	pkg.Types = tpkg

	diags, _, err := Run([]*Package{pkg}, analyzers)
	if err != nil {
		return 0, err
	}
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
	return len(diags), nil
}

func compilerName(c string) string {
	if c == "" {
		return "gc"
	}
	return c
}
