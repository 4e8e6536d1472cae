package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestNumChunks(t *testing.T) {
	cases := []struct{ n, chunk, want int }{
		{0, 10, 0},
		{-5, 10, 0},
		{1, 10, 1},
		{10, 10, 1},
		{11, 10, 2},
		{100, 10, 10},
		{7, 0, 7}, // chunk <= 0 coerced to 1
	}
	for _, c := range cases {
		if got := NumChunks(c.n, c.chunk); got != c.want {
			t.Errorf("NumChunks(%d, %d) = %d, want %d", c.n, c.chunk, got, c.want)
		}
	}
}

func TestNewClampsWorkers(t *testing.T) {
	if w := New(0).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0).Workers() = %d, want GOMAXPROCS", w)
	}
	if w := New(-3).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(-3).Workers() = %d, want GOMAXPROCS", w)
	}
	if w := New(7).Workers(); w != 7 {
		t.Fatalf("New(7).Workers() = %d", w)
	}
}

// TestRunCoversAllIndices: every index in [0, n) is visited exactly once,
// for a spread of worker counts and chunk sizes.
func TestRunCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		for _, chunk := range []int{1, 3, 64, 1000} {
			n := 777
			hits := make([]int32, n)
			err := New(workers).Run(context.Background(), n, chunk, func(ci, lo, hi int) error {
				if lo != ci*chunk {
					return fmt.Errorf("chunk %d: lo = %d, want %d", ci, lo, ci*chunk)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d chunk=%d: %v", workers, chunk, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d chunk=%d: index %d visited %d times", workers, chunk, i, h)
				}
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	called := false
	err := New(4).Run(context.Background(), 0, 8, func(ci, lo, hi int) error {
		called = true
		return nil
	})
	if err != nil || called {
		t.Fatalf("empty run: err=%v called=%v", err, called)
	}
}

func TestRunPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 8} {
		var calls atomic.Int64
		err := New(workers).Run(context.Background(), 1000, 1, func(ci, lo, hi int) error {
			calls.Add(1)
			if ci == 5 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		// The error cancels remaining dispatch: far fewer than n calls.
		if workers > 1 && calls.Load() == 1000 {
			t.Fatalf("workers=%d: error did not stop dispatch", workers)
		}
	}
}

// TestRunContextCancel: the 10th call cancels the context, and every call
// after it waits until that cancel has returned, so no worker can run on
// while the canceller stalls. Each worker then sees the cancellation
// before its next chunk: at most one call per worker follows the 10th.
func TestRunContextCancel(t *testing.T) {
	const workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan struct{})
	var calls atomic.Int64
	err := New(workers).Run(ctx, 100000, 1, func(ci, lo, hi int) error {
		switch c := calls.Add(1); {
		case c == 10:
			cancel()
			close(cancelled)
		case c > 10:
			<-cancelled
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := calls.Load(); got > 10+workers {
		t.Fatalf("cancellation did not stop dispatch: %d calls, want at most %d", got, 10+workers)
	}
}

func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := New(1).Run(ctx, 10, 1, func(ci, lo, hi int) error {
		t.Error("fn called after pre-cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// TestMapDeterministicOrder: per-chunk results land at their chunk index,
// so a front-to-back merge is the same for any worker count.
func TestMapDeterministicOrder(t *testing.T) {
	n, chunk := 1000, 37
	var want []int
	for _, workers := range []int{1, 2, 5, 13} {
		got, err := Map(New(workers), context.Background(), n, chunk, func(ci, lo, hi int) (int, error) {
			sum := 0
			for i := lo; i < hi; i++ {
				sum += i
			}
			return sum, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d chunks, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: chunk %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	out, err := Map(New(3), context.Background(), 100, 10, func(ci, lo, hi int) (int, error) {
		if ci == 3 {
			return 0, boom
		}
		return 1, nil
	})
	if !errors.Is(err, boom) || out != nil {
		t.Fatalf("out=%v err=%v", out, err)
	}
}
