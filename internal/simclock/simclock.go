// Package simclock is the simulated time the TPU and host models are
// built on: one virtual clock measured in microseconds, and Resource,
// the serially-shared facility whose next-free times advance it.
//
// Because simulated time is decoupled from wall-clock time, a
// multi-hour TPU training job replays in milliseconds, and runs are
// deterministic for a fixed seed.
package simclock

import "fmt"

// Time is a point in simulated time, in microseconds since simulation start.
type Time int64

// Duration is a span of simulated time in microseconds.
type Duration int64

// Common durations.
const (
	Microsecond Duration = 1
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns the duration as floating-point milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", d.Milliseconds())
	default:
		return fmt.Sprintf("%dµs", int64(d))
	}
}

// DurationFromSeconds converts floating-point seconds to a Duration,
// rounding to the nearest microsecond.
func DurationFromSeconds(s float64) Duration {
	return Duration(s*float64(Second) + 0.5)
}
