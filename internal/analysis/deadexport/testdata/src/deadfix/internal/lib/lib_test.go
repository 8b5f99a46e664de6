package lib

import "testing"

// A test-only caller does not keep OnlyTested alive.
func TestOnlyTested(t *testing.T) {
	if OnlyTested() != 2 {
		t.Fatal("OnlyTested")
	}
}
