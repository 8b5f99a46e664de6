// Package lib seeds unreferenced exports for the deadexport golden
// suite, next to the exemptions the type checker grants.
package lib

import "errors"

// Shape is an interface declared in the module.
type Shape interface{ Area() float64 }

// Square implements Shape.
type Square struct{ Side float64 }

// Area implements Shape: exempt, although no code names Square.Area.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter has no caller.
func (s Square) Perimeter() float64 { return 4 * s.Side } // want `exported method Square\.Perimeter has no non-test reference`

// ForTool is called only by cmd/tool.
func ForTool() int { return 3 }

// Live is called by the root package.
func Live() int { return helper() }

func helper() int { return 1 }

// Dead calls only itself, which does not count.
func Dead(n int) int { // want `exported func Dead has no non-test reference`
	if n == 0 {
		return 0
	}
	return Dead(n - 1)
}

// OnlyTested is called from lib_test.go alone.
func OnlyTested() int { return 2 } // want `exported func OnlyTested has no non-test reference`

// Loop is used only by its own methods, which does not count.
type Loop struct{ n int } // want `exported type Loop has no non-test reference`

// Next has no caller.
func (l Loop) Next() Loop { return Loop{l.n + 1} } // want `exported method Loop\.Next has no non-test reference`

// Stamp implements fmt.Stringer, a standard-library interface.
type Stamp struct{}

// String is exempt: fmt calls it through fmt.Stringer.
func (Stamp) String() string { return "stamp" }

// Widget is re-exported by the root package.
type Widget struct{ turns int }

// Spin has no caller in the module, but it is public API.
func (w *Widget) Spin() { w.turns++ }

// Limit is read by the root package.
const Limit = 3

// Spare is never read.
const Spare = 4 // want `exported const Spare has no non-test reference`

// Verbose is never read.
var Verbose bool // want `exported var Verbose has no non-test reference`

// failure's methods implement error and the errors package's Unwrap
// protocol.
type failure struct{ cause error }

func (f failure) Error() string { return "failure: " + f.cause.Error() }

func (f failure) Unwrap() error { return f.cause }

// Check returns a wrapped error.
func Check() error { return failure{errors.New("x")} }
