// Package flagcheck validates command-line flag ranges at startup. Every
// binary funnels its numeric flags through one Check so a zero queue
// depth, negative worker count or nonsensical ring size dies at launch
// with a message naming the flag, instead of surfacing later as a hung
// daemon or a divide-by-zero deep in the scheduler.
package flagcheck

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// Check accumulates range violations; Err joins them so an operator sees
// every bad flag in one run, not one per restart.
type Check struct {
	errs []error
}

func (c *Check) fail(format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf(format, args...))
}

// Positive requires v > 0.
func (c *Check) Positive(name string, v int) {
	if v <= 0 {
		c.fail("-%s must be positive, got %d", name, v)
	}
}

// NonNegative requires v >= 0 (zero being a "use the default" or
// "disabled" sentinel).
func (c *Check) NonNegative(name string, v int) {
	if v < 0 {
		c.fail("-%s must not be negative, got %d", name, v)
	}
}

// PositiveInt64 requires v > 0.
func (c *Check) PositiveInt64(name string, v int64) {
	if v <= 0 {
		c.fail("-%s must be positive, got %d", name, v)
	}
}

// PositiveFloat requires v > 0.
func (c *Check) PositiveFloat(name string, v float64) {
	if v <= 0 {
		c.fail("-%s must be positive, got %g", name, v)
	}
}

// AtMostFloat requires v <= max.
func (c *Check) AtMostFloat(name string, v, max float64) {
	if v > max {
		c.fail("-%s must be at most %g, got %g", name, max, v)
	}
}

// NonNegativeFloat requires v >= 0.
func (c *Check) NonNegativeFloat(name string, v float64) {
	if v < 0 {
		c.fail("-%s must not be negative, got %g", name, v)
	}
}

// PositiveDuration requires v > 0.
func (c *Check) PositiveDuration(name string, v time.Duration) {
	if v <= 0 {
		c.fail("-%s must be a positive duration, got %v", name, v)
	}
}

// NonNegativeDuration requires v >= 0.
func (c *Check) NonNegativeDuration(name string, v time.Duration) {
	if v < 0 {
		c.fail("-%s must not be a negative duration, got %v", name, v)
	}
}

// OneOf requires v to be one of the allowed names (exact match). Used by
// the enum-valued flags (-dataflow, -format, ...); the violation lists the
// accepted set so a typo is self-correcting.
func (c *Check) OneOf(name, v string, allowed ...string) {
	for _, a := range allowed {
		if v == a {
			return
		}
	}
	c.fail("-%s must be one of %s, got %q", name, strings.Join(allowed, "|"), v)
}

// Err returns all accumulated violations joined, or nil.
func (c *Check) Err() error {
	return errors.Join(c.errs...)
}
