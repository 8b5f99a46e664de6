// Package hotfix seeds hot-path hygiene violations for the analyzer's
// golden suite: the historical bug class is an allocation construct
// (defer, fmt, an escaping closure, an interface box) slipping into a
// per-cycle function.
package hotfix

import "fmt"

// sink stands in for an interface-typed collector on the hot path.
type sink interface{ put(v any) }

var out sink

// Step is the annotated hot root.
//
//impress:hotpath
func Step(n int) int {
	defer trace() // want `defer in hot function`
	if n < 0 {
		panic(fmt.Sprintf("negative step %d", n)) // exempt: panic argument
	}
	fmt.Println(n)                   // want `fmt\.Println in hot function` `argument boxes a concrete value`
	f := func() int { return n + 1 } // want `closure in hot function .* escapes`
	out.put(n)                       // want `argument boxes a concrete value`
	inline := func() int { return n * 2 }()
	return helper(f() + inline)
}

// helper is hot by reachability, not annotation.
func helper(n int) int {
	defer trace() // want `defer in hot function .*reachable from`
	return n
}

func trace() {}
