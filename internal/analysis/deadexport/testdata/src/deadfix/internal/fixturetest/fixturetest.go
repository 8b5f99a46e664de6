// Package fixturetest is a test-support package: its import path ends
// in "test", so its exports are for tests and never reported.
package fixturetest

// Helper has no caller.
func Helper() {}
