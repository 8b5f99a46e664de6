// Package deadfix is the public root of the deadexport golden fixture.
// Its code is the only production caller of the internal package, and
// its aliases make methods public API.
package deadfix

import (
	"fmt"

	"impress/internal/analysis/deadexport/testdata/src/deadfix/internal/lib"
)

// Widget re-exports lib.Widget, so its methods are public API.
type Widget = lib.Widget

// Describe is the production code that keeps the rest of lib alive.
func Describe() string {
	var s lib.Shape = lib.Square{Side: 2}
	return fmt.Sprint(lib.Live(), s.Area(), lib.Limit, lib.Stamp{}, lib.Check())
}
