package simclock

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestResourceSerialQueueing(t *testing.T) {
	r := MustResource("link", 1)
	s1, e1 := r.Acquire(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first acquire [%d,%d), want [0,10)", s1, e1)
	}
	// Arrives while busy: must queue behind.
	s2, e2 := r.Acquire(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("second acquire [%d,%d), want [10,20)", s2, e2)
	}
	// Arrives after idle gap: starts immediately.
	s3, e3 := r.Acquire(100, 5)
	if s3 != 100 || e3 != 105 {
		t.Fatalf("third acquire [%d,%d), want [100,105)", s3, e3)
	}
}

func TestResourceParallelCapacity(t *testing.T) {
	r := MustResource("mxu", 2)
	_, e1 := r.Acquire(0, 10)
	_, e2 := r.Acquire(0, 10)
	if e1 != 10 || e2 != 10 {
		t.Fatalf("two units should serve in parallel: ends %d, %d", e1, e2)
	}
	s3, _ := r.Acquire(0, 10)
	if s3 != 10 {
		t.Fatalf("third job should queue to time 10, started %d", s3)
	}
}

func TestResourceUtilization(t *testing.T) {
	r := MustResource("x", 2)
	r.Acquire(0, 50)
	r.Acquire(0, 50)
	// 100 busy over 2 units * 100 elapsed = 0.5
	if u := r.Utilization(100); u != 0.5 {
		t.Fatalf("utilization = %g, want 0.5", u)
	}
	for _, elapsed := range []Duration{0, -1, -100} {
		if u := r.Utilization(elapsed); u != 0 {
			t.Fatalf("Utilization(%d) = %g, want 0", elapsed, u)
		}
	}
}

func TestResourceReset(t *testing.T) {
	r := MustResource("x", 1)
	r.Acquire(0, 100)
	r.Reset(500)
	if r.BusyTime() != 0 || r.Acquires() != 0 {
		t.Fatal("reset did not clear accounting")
	}
	s, _ := r.Acquire(0, 10)
	if s != 500 {
		t.Fatalf("after Reset(500), acquire starts at %d, want 500", s)
	}
}

func TestNewResourceCapacity(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		wantErr  bool
	}{
		{"one", 1, false},
		{"many", 64, false},
		{"zero", 0, true},
		{"negative", -1, true},
		{"very-negative", -1 << 20, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := newResource(tc.name, tc.capacity)
			if tc.wantErr {
				if !errors.Is(err, errBadCapacity) {
					t.Fatalf("newResource(%d) err = %v, want errBadCapacity", tc.capacity, err)
				}
				if r != nil {
					t.Fatal("rejected resource should be nil")
				}
				return
			}
			if err != nil {
				t.Fatalf("newResource(%d) unexpected error: %v", tc.capacity, err)
			}
			if r.Capacity() != tc.capacity {
				t.Fatalf("capacity = %d, want %d", r.Capacity(), tc.capacity)
			}
		})
	}
}

func TestMustResourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustResource(0) did not panic")
		}
	}()
	MustResource("x", 0)
}

// Delay on a fresh resource (no Acquire yet) must still push the free time
// forward so the first job queues behind the externally imposed stall.
func TestDelayBeforeFirstAcquire(t *testing.T) {
	cases := []struct {
		name      string
		capacity  int
		delayTo   Time
		arriveAt  Time
		dur       Duration
		wantStart Time
	}{
		{"stall-gates-first-job", 1, 40, 0, 10, 40},
		{"arrival-after-stall", 1, 40, 100, 10, 100},
		{"stall-gates-all-units", 3, 25, 5, 10, 25},
		{"zero-stall-noop", 2, 0, 7, 10, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := MustResource(tc.name, tc.capacity)
			r.Delay(tc.delayTo)
			start, end := r.Acquire(tc.arriveAt, tc.dur)
			if start != tc.wantStart {
				t.Fatalf("start = %d, want %d", start, tc.wantStart)
			}
			if end != start.Add(tc.dur) {
				t.Fatalf("end = %d, want %d", end, start.Add(tc.dur))
			}
		})
	}
}

func TestNextFree(t *testing.T) {
	r := MustResource("x", 1)
	r.Acquire(0, 30)
	if nf := r.NextFree(10); nf != 30 {
		t.Fatalf("NextFree(10) = %d, want 30", nf)
	}
	if nf := r.NextFree(50); nf != 50 {
		t.Fatalf("NextFree(50) = %d, want 50", nf)
	}
}

// Property: work is conserved — total busy time equals the sum of requested
// durations, and no unit serves two jobs at once.
func TestPropertyWorkConservation(t *testing.T) {
	f := func(durs []uint8, capRaw uint8) bool {
		capacity := 1 + int(capRaw%4)
		r := MustResource("p", capacity)
		var total Duration
		at := Time(0)
		for _, d8 := range durs {
			d := Duration(d8)
			r.Acquire(at, d)
			total += d
			at += 3
		}
		return r.BusyTime() == total && r.Acquires() == uint64(len(durs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: on a capacity-1 resource, consecutive acquires never overlap.
func TestPropertyNoOverlapSerial(t *testing.T) {
	f := func(durs []uint8) bool {
		r := MustResource("s", 1)
		lastEnd := Time(0)
		for i, d8 := range durs {
			start, end := r.Acquire(Time(i), Duration(d8))
			if start < lastEnd {
				return false
			}
			if end != start.Add(Duration(d8)) {
				return false
			}
			lastEnd = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
