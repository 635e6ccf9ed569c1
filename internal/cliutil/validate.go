// Package cliutil holds the flag-validation helpers shared by the cmd
// binaries. The commands accept some mix of budget, threshold and size
// values; validating them in one place means a typo like "-threshold -3"
// or "-budget -1s" fails fast with the same message everywhere instead of
// silently misconfiguring the engine (fuzzing of the gauntlet Validate
// found exactly this class of bug).
package cliutil

import (
	"fmt"
	"time"
)

// NonNegative validates a count or threshold where 0 means "off".
func NonNegative(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("-%s %d is negative (0 disables it)", name, v)
	}
	return nil
}

// Positive validates a value that must be at least 1 (sizes, widths).
func Positive(name string, v int) error {
	if v < 1 {
		return fmt.Errorf("-%s %d must be positive", name, v)
	}
	return nil
}

// NonNegativeDuration validates a budget/interval where 0 means
// "unbounded" or "default".
func NonNegativeDuration(name string, d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("-%s %v is negative (0 = unbounded)", name, d)
	}
	return nil
}

// PositiveDuration validates an interval that must actually elapse.
func PositiveDuration(name string, d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("-%s %v must be positive", name, d)
	}
	return nil
}

// Fraction validates a probability-like value in [0, 1].
func Fraction(name string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("-%s %v is outside [0, 1]", name, v)
	}
	return nil
}

// Check returns the first non-nil error, so a command validates its whole
// flag profile in one expression.
func Check(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
