package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// tinySizes shrink every workload so the whole suite runs in seconds;
// the code paths are the full-size ones.
var tinySizes = sizes{
	Workloads:   []string{"dcgan-mnist"},
	StreamSteps: 300, StreamSessions: 1,
	SmallSteps: 200, SmallRecords: 2, SmallSessions: 3,
	PipelineSteps: 100, QuerySteps: 200, QuerySeeds: 1,
	PingSamples: 5, ReplayReps: 1,
	MinSetups: 1, MaxSetups: 1,
}

// tinyConfig measures one round after the warm-up round.
func tinyConfig(t *testing.T, traced bool) runConfig {
	return runConfig{scratch: t.TempDir(), seed: 1, seconds: 0.01, traced: traced, sz: tinySizes}
}

func TestBenchmarkJSONMatchesDescribe(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want benchmarkFile
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	described, err := json.Marshal(describe())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(described, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Fatal("BENCHMARK.json differs from `go run ./bench -describe`; regenerate it")
	}
	if len(onDisk.Workloads) != len(workloads()) {
		t.Fatalf("%d workloads described, %d implemented", len(onDisk.Workloads), len(workloads()))
	}
}

// TestWorkloadsPrintTheDescribedMetrics runs every workload, untraced
// and traced, and checks each is correct and prints exactly the metric
// names BENCHMARK.json promises for that mode.
func TestWorkloadsPrintTheDescribedMetrics(t *testing.T) {
	for i, w := range workloads() {
		if w.def.Name != workloadDefs[i].Name {
			t.Fatalf("workload %d is %q, described as %q", i, w.def.Name, workloadDefs[i].Name)
		}
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%v", w.def.Name, traced), func(t *testing.T) {
				t.Parallel()
				rep, err := run(w, tinyConfig(t, traced))
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct {
					t.Errorf("checks failed: %v", rep.Failures)
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, %d described", len(rep.Metrics), len(defs))
				}
				for _, def := range defs {
					m, ok := rep.Metrics[def.Name]
					if !ok || m.Unit != def.Unit {
						t.Errorf("metric %s (%s) missing or in unit %q", def.Name, def.Unit, m.Unit)
					}
					if !traced && !(m.Value > 0 && m.Value < math.MaxFloat64) {
						t.Errorf("end-to-end metric %s = %v, must be a number above 0", def.Name, m.Value)
					}
				}
			})
		}
	}
}

// dropOneAppend acks the n-th session-log append without writing it —
// the lie the zero-loss check exists to catch.
type dropOneAppend struct {
	sutStore
	n       int64
	appends atomic.Int64
}

func (d *dropOneAppend) Append(name string, data []byte) (*sutObject, error) {
	if strings.HasPrefix(name, "sessions/") && d.appends.Add(1) == d.n {
		return &sutObject{Name: name}, nil
	}
	return d.sutStore.Append(name, data)
}

func TestDroppedAppendFailsCollectStream(t *testing.T) {
	cfg := tinyConfig(t, false)
	cfg.wrapStore = func(s sutStore) sutStore { return &dropOneAppend{sutStore: s, n: 3} }
	rep, err := run(workloads()[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Fatal("collect-stream reported correct although the store dropped an acked append")
	}
	if !strings.Contains(strings.Join(rep.Failures, "\n"), "durable log") {
		t.Fatalf("the acked-means-durable check did not fire; failures: %v", rep.Failures)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 22, 2, 4, 7, 37, 11, 16, 29})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
