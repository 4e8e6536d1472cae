package estimator

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/simclock"
	"repro/internal/tpu"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// pollEveryStep runs opts on workload with the profile service polled
// after every train step — optionally after the hook's own work — then
// drained to the end of the stream. It returns the runner and every
// response in order. Each window is also read again, as it is cut,
// through buffers of every chunk size, and must come out the same.
func pollEveryStep(t *testing.T, workload string, opts Options, hook func(r *Runner, step int64)) (*Runner, []testWindow) {
	t.Helper()
	var svc *tpu.ProfileService
	var resps []testWindow
	poll := func(r *Runner) testWindow {
		resp := nextWindow(svc)
		for _, size := range chunkSizes {
			if got := readWindow(t, r, size, resp.WindowStart, resp.WindowEnd); !slices.Equal(got, resp.Events) {
				t.Fatalf("window [%d, %d) through %d events: %d events, the service's %d (or not the same ones)",
					resp.WindowStart, resp.WindowEnd, size, len(got), len(resp.Events))
			}
		}
		resps = append(resps, resp)
		return resp
	}
	opts.OnTrainStep = func(r *Runner, step int64, _ tpu.StepTiming) {
		if hook != nil {
			hook(r, step)
		}
		poll(r)
	}
	r, err := New(workloads.MustGet(workload), opts)
	if err != nil {
		t.Fatal(err)
	}
	svc = r.ProfileService()
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if i == 10000 {
			t.Fatal("no end of stream after 10000 windows")
		}
		if poll(r).EndOfStream {
			return r, resps
		}
	}
}

// checkExactlyOnce fails unless the responses' events, concatenated, are
// the run's event stream — every event once, in order — and no response
// holds an event of a step below the OpenStep an earlier one reported.
func checkExactlyOnce(t *testing.T, r *Runner, resps []testWindow) {
	t.Helper()
	var got []trace.Event
	open := int64(math.MinInt64) // a non-positive OpenStep says nothing
	for _, resp := range resps {
		for _, e := range resp.Events {
			if e.Step < open {
				t.Fatalf("window [%d, %d) holds step %d, below the OpenStep %d an earlier window reported",
					resp.WindowStart, resp.WindowEnd, e.Step, open)
			}
		}
		got = append(got, resp.Events...)
		if resp.OpenStep > 0 {
			open = max(open, resp.OpenStep)
		}
	}
	if want := runEvents(r); !slices.Equal(got, want) {
		t.Fatalf("the windows delivered %d events, the run emitted %d (or not the same ones)", len(got), len(want))
	}
}

// TestPerStepPollShipsEveryEventOnce polls the profile service after
// every train step, on one thread, so the result is the same every run:
// windows cut at the run's progress clock used to skip the input-pipeline
// events a batch emits behind it and the device steps that start before
// a summary's end.
func TestPerStepPollShipsEveryEventOnce(t *testing.T) {
	for _, workload := range []string{"dcgan-mnist", "bert-mrpc", "resnet-imagenet"} {
		for _, v := range []tpu.Version{tpu.V2, tpu.V3} {
			t.Run(fmt.Sprintf("%s/%s", workload, v), func(t *testing.T) {
				r, resps := pollEveryStep(t, workload, Options{Version: v, Steps: 150}, nil)
				checkExactlyOnce(t, r, resps)
			})
		}
	}
}

// TestPerStepPollShipsHookEvents: what a training-step hook makes the
// host emit — instrumentation ops at the decode pool's free time, a
// rollback's pipeline stall at the newest batch's ready time — starts
// behind the progress clock too, and ships once.
func TestPerStepPollShipsHookEvents(t *testing.T) {
	r, resps := pollEveryStep(t, "dcgan-mnist", Options{Steps: 150, StepOverheadUs: 40}, func(r *Runner, step int64) {
		if step%25 == 24 {
			r.Stall(3*simclock.Millisecond, step)
		}
		if step == 100 {
			r.SetStepOverheadUs(0)
		}
	})
	checkExactlyOnce(t, r, resps)
}
