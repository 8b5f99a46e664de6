// Command impress-lint runs the repository's invariant suite
// (DESIGN.md §10) over Go packages: determinism (map iteration order,
// wall clock, global rand, unsorted directory listings), ctxfirst (the
// context-first public API gate), errtaxonomy (typed errors at the
// public boundary, %w wrapping), hotpath (//impress:hotpath hygiene)
// and deadexport (internal exports that only tests reference).
//
// Standalone, whole-module mode (full hotpath callee propagation; the
// only mode in which deadexport reports):
//
//	impress-lint ./...
//	impress-lint -only determinism,hotpath ./internal/sim/...
//
// As a go vet tool (per-package, over the same non-test files as the
// standalone run; hotpath stops at package boundaries and deadexport
// reports nothing):
//
//	go vet -vettool=$(which impress-lint) ./...
//
// Exit status is 0 for a clean tree, 1 when violations are reported,
// and 2 for usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"impress/internal/analysis"
	"impress/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// The go vet -vettool protocol: `tool -V=full` must report a stable
	// identity line, and `tool <file>.cfg` analyzes one compilation unit.
	if len(args) == 1 && args[0] == "-V=full" {
		// cmd/go parses the trailing buildID= field to key its vet result
		// cache; a fixed ID (the same convention x/tools' unitchecker
		// uses for devel builds) just disables cross-version caching.
		fmt.Fprintln(stdout, "impress-lint version devel buildID=00000000000000000000000000000000")
		return 0
	}
	if len(args) == 1 && args[0] == "-flags" {
		// cmd/go asks vet tools for their flag schema as a JSON array;
		// the suite is fixed configuration, so there are no flags to
		// declare.
		fmt.Fprintln(stdout, "[]")
		return 0
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		n, err := analysis.RunUnit(args[0], suite.Analyzers(), stderr)
		if err != nil {
			fmt.Fprintln(stderr, "impress-lint:", err)
			return 2
		}
		if n > 0 {
			return 1
		}
		return 0
	}

	flags := flag.NewFlagSet("impress-lint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	list := flags.Bool("list", false, "list the analyzers and exit")
	only := flags.String("only", "", "comma-separated analyzer names to run (default: all)")
	dir := flags.String("dir", ".", "directory to resolve package patterns in")
	flags.Usage = func() {
		fmt.Fprintln(stderr, "usage: impress-lint [-only names] [-dir dir] [packages]")
		flags.PrintDefaults()
	}
	if err := flags.Parse(args); err != nil {
		return 2
	}

	analyzers := suite.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "impress-lint: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "impress-lint:", err)
		return 2
	}
	diags, suppressed, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "impress-lint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(suppressed) > 0 {
		// The tree's policy is zero suppressions (DESIGN.md §10); make
		// any that exist impossible to overlook without failing forks
		// that need an emergency escape.
		fmt.Fprintf(stderr, "impress-lint: %d diagnostic(s) suppressed by //lint:ignore directives\n", len(suppressed))
		for _, d := range suppressed {
			fmt.Fprintf(stderr, "  suppressed: %s\n", d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
