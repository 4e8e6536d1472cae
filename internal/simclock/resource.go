package simclock

import (
	"errors"
	"fmt"
)

// Resource models a serially-shared facility (an MXU, a PCIe link, a host
// pipeline stage with N workers). Work items queue FIFO per unit of
// capacity; Acquire returns the time at which the work completes.
//
// This is the classic "next free time" formulation: rather than simulating
// queue entries as events, each unit of capacity tracks when it next frees
// up, and an arrival is assigned to the earliest-free unit. Busy time is
// accumulated for utilization accounting.
type Resource struct {
	name     string
	freeAt   []Time // next-free time per capacity unit
	busy     Duration
	acquires uint64
}

// errBadCapacity rejects non-positive resource capacities. A zero-capacity
// resource used to be silently promoted to capacity 1, which turned spec
// bugs (an unset thread count, a negative override) into quietly wrong
// simulations; now the construction fails loudly instead.
var errBadCapacity = errors.New("simclock: resource capacity must be positive")

// newResource creates a resource with the given parallel capacity.
// Capacity below 1 is rejected with errBadCapacity.
func newResource(name string, capacity int) (*Resource, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("%w: %q has capacity %d", errBadCapacity, name, capacity)
	}
	return &Resource{name: name, freeAt: make([]Time, capacity)}, nil
}

// MustResource is newResource for capacities known valid at the call site
// (literals, pre-validated parameters); it panics on a bad capacity.
func MustResource(name string, capacity int) *Resource {
	r, err := newResource(name, capacity)
	if err != nil {
		panic(err)
	}
	return r
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the number of parallel service units.
func (r *Resource) Capacity() int { return len(r.freeAt) }

// Acquire books d of service starting no earlier than at, on the unit that
// frees up first. It returns the interval [start, end) the work occupies.
func (r *Resource) Acquire(at Time, d Duration) (start, end Time) {
	best := 0
	for i := 1; i < len(r.freeAt); i++ {
		if r.freeAt[i] < r.freeAt[best] {
			best = i
		}
	}
	start = at
	if r.freeAt[best] > start {
		start = r.freeAt[best]
	}
	end = start.Add(d)
	r.freeAt[best] = end
	r.busy += d
	r.acquires++
	return start, end
}

// NextFree returns the earliest time any unit is free, at or after at.
func (r *Resource) NextFree(at Time) Time {
	best := r.freeAt[0]
	for _, t := range r.freeAt[1:] {
		if t < best {
			best = t
		}
	}
	if best < at {
		return at
	}
	return best
}

// Delay pushes every unit's next-free time to at least t (an externally
// imposed stall, e.g. an input-iterator restart). Units already busy past
// t are unaffected.
func (r *Resource) Delay(t Time) {
	for i := range r.freeAt {
		if r.freeAt[i] < t {
			r.freeAt[i] = t
		}
	}
}

// AddDelay inserts d of dead time at the tail of every unit's schedule,
// delaying all subsequently queued work by d. Unlike Delay, this extends
// the critical path even when the resource has a backlog.
func (r *Resource) AddDelay(d Duration) {
	for i := range r.freeAt {
		r.freeAt[i] = r.freeAt[i].Add(d)
	}
}

// BusyTime returns the total booked service time across all units.
func (r *Resource) BusyTime() Duration { return r.busy }

// Acquires returns the number of Acquire calls served.
func (r *Resource) Acquires() uint64 { return r.acquires }

// Utilization returns busy time as a fraction of capacity*elapsed.
// It returns 0 for a zero or negative observation window.
func (r *Resource) Utilization(elapsed Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(r.busy) / (float64(elapsed) * float64(len(r.freeAt)))
}

// Reset clears accounting and frees all units at time t.
func (r *Resource) Reset(t Time) {
	for i := range r.freeAt {
		r.freeAt[i] = t
	}
	r.busy = 0
	r.acquires = 0
}
