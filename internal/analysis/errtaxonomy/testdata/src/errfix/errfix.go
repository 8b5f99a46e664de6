// Package errfix seeds error-taxonomy violations for the analyzer's
// golden suite: the historical bug class is an untyped error escaping
// the public boundary, which callers cannot classify with errors.Is.
package errfix

import (
	"errors"
	"fmt"

	"impress/internal/errs"
)

// Validate returns a fresh anonymous error at the boundary.
func Validate(spec string) error {
	if spec == "" {
		return errors.New("empty spec") // want `errors\.New in public entry point Validate creates an untyped error`
	}
	return nil
}

// Parse mixes an unwrapped Errorf with the correct sentinel wrap.
func Parse(spec string) error {
	if spec == "bad" {
		return fmt.Errorf("parse %q failed", spec) // want `creates an untyped error \(no %w\)`
	}
	if spec == "worse" {
		return fmt.Errorf("%w: parse %q", errs.ErrBadSpec, spec) // correct: typed and wrapped
	}
	return nil
}

// MustParse panics at the boundary instead of returning an error.
func MustParse(spec string) string {
	if spec == "" {
		panic("empty spec") // want `naked panic in public entry point MustParse`
	}
	return spec
}

// flatten demonstrates the module-wide %w rule: it is unexported, yet
// formatting an error with %v still severs the chain for errors.Is.
func flatten(err error) error {
	return fmt.Errorf("running: %v", err) // want `flattening its chain`
}

// rewrap keeps the chain intact: allowed anywhere.
func rewrap(err error) error {
	return fmt.Errorf("running: %w", err)
}
