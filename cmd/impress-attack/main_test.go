package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"impress"
	"impress/internal/trackers"
)

// TestParseTrackerCoversRegistry pins the CLI to the tracker registry:
// every registered tracker resolves by name and builds an instance that
// answers to that name, so zoo extensions are attackable the moment
// they register.
func TestParseTrackerCoversRegistry(t *testing.T) {
	for _, info := range trackers.Registry() {
		factory, err := parseTracker(info.Name, 80, 1)
		if err != nil {
			t.Fatalf("parseTracker(%q): %v", info.Name, err)
		}
		if got := factory(4000).Name(); got != info.Name {
			t.Errorf("parseTracker(%q) built a tracker named %q", info.Name, got)
		}
	}
}

// TestParseTrackerUnknownIsTyped pins the failure mode: an unknown
// -tracker is impress.ErrBadSpec and the message lists every registered
// name, so the user learns the valid universe from the error itself.
func TestParseTrackerUnknownIsTyped(t *testing.T) {
	_, err := parseTracker("twice", 80, 1)
	if !errors.Is(err, impress.ErrBadSpec) {
		t.Fatalf("unknown tracker error = %v, want impress.ErrBadSpec", err)
	}
	for _, name := range trackers.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered tracker %q", err, name)
		}
	}
}

// TestSearchReportsInterrupt pins the strategy search to the signal
// context: a cancelled search exits 1 with the same interrupt report as
// a cancelled single-pattern run, instead of running to completion.
func TestSearchReportsInterrupt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, pattern := range []string{"search", "rowpress"} {
		var stdout, stderr bytes.Buffer
		code := run(ctx, []string{"-pattern", pattern}, &stdout, &stderr)
		if code != 1 {
			t.Errorf("-pattern %s under a cancelled context: exit %d, want 1 (stderr %q)", pattern, code, stderr.String())
		}
		if !strings.HasPrefix(stderr.String(), "interrupted: ") {
			t.Errorf("-pattern %s: stderr %q lacks the interrupt report", pattern, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-pattern %s: cancelled run printed results:\n%s", pattern, stdout.String())
		}
	}
}

// TestRunExitCodes: a completed search exits 0 and names its worst
// case; unknown patterns and designs exit 2.
func TestRunExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-pattern", "search", "-design", "impress-p"}, &stdout, &stderr); code != 0 {
		t.Fatalf("search exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "worst case: ") {
		t.Errorf("search output lacks the worst-case line:\n%s", stdout.String())
	}
	if code := run(context.Background(), []string{"-pattern", "bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown pattern exit %d, want 2", code)
	}
	// -design resolves through core.ParseDesign, whose error lists the
	// known designs.
	stderr.Reset()
	if code := run(context.Background(), []string{"-design", "bogus"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown design exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "no-rp, express, impress-n or impress-p") {
		t.Errorf("unknown design: stderr %q does not list the known designs", stderr.String())
	}
}
