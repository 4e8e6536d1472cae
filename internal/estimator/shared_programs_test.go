package estimator

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/tpu"
	"repro/internal/workloads"
)

// TestRunnersShareWorkloadPrograms: two runners on one Workload, on
// different TPU generations, train at once over the programs the
// workload compiled once (go test -race checks that they only read
// them), and each records what the same run records alone.
func TestRunnersShareWorkloadPrograms(t *testing.T) {
	w := workloads.MustGet("dcgan-mnist")
	train, _, err := w.Programs()
	if err != nil {
		t.Fatal(err)
	}
	versions := []tpu.Version{tpu.V2, tpu.V3}
	runners := make([]*Runner, len(versions))
	for i, v := range versions {
		if runners[i], err = New(w, Options{Version: v, Steps: 80}); err != nil {
			t.Fatal(err)
		}
		if runners[i].trainProg != train {
			t.Fatalf("%v runner compiled its own train program", v)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(runners))
	for i, r := range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.Run()
		}()
	}
	wg.Wait()
	for i, v := range versions {
		if errs[i] != nil {
			t.Fatalf("%v: %v", v, errs[i])
		}
		alone := quickRun(t, "dcgan-mnist", Options{Version: v, Steps: 80})
		if !reflect.DeepEqual(runEvents(runners[i]), runEvents(alone)) {
			t.Fatalf("%v: the concurrent run's events differ from a run alone", v)
		}
	}
}
