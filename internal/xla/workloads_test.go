package xla_test

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/workloads"
	"repro/internal/xla"
)

// everyWorkload is every registered workload and its Small variant.
func everyWorkload(t *testing.T) []*workloads.Workload {
	t.Helper()
	var out []*workloads.Workload
	for _, name := range workloads.Names() {
		w := workloads.MustGet(name)
		small, err := w.Small()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w, small)
	}
	return out
}

// TestCompileMatchesOracleOnWorkloads: on both step graphs of every
// workload and Small variant, folded and not, with fusion on and off,
// the compile gives the programs of the compile it replaced.
func TestCompileMatchesOracleOnWorkloads(t *testing.T) {
	for _, w := range everyWorkload(t) {
		for _, g := range []*graph.Graph{w.TrainGraph, w.EvalGraph} {
			folded, _, err := graph.FoldConstants(g)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range []*graph.Graph{g, folded} {
				for _, opts := range []xla.Options{{}, {DisableFusion: true}} {
					got, err := xla.CompileWithOptions(in, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := xla.CompileOracle(in, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s (%d nodes, %+v): the program differs from the oracle's", w.Name, g.Name(), in.Len(), opts)
					}
				}
			}
		}
	}
}

// TestWorkloadProgramsAreFreshCompiles: the programs a workload holds
// are what compiling its folded graphs afresh gives, and what compiling
// the unfolded graphs gives — a program depends on its graph alone, so
// calibration, which compiled the unfolded train graph, reads the same
// step time from the held program. A Naive copy shares them.
func TestWorkloadProgramsAreFreshCompiles(t *testing.T) {
	for _, w := range everyWorkload(t) {
		train, eval, err := w.Programs()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			held *xla.Program
			g    *graph.Graph
		}{{train, w.TrainGraph}, {eval, w.EvalGraph}} {
			folded, _, err := graph.FoldConstants(c.g)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range []*graph.Graph{folded, c.g} {
				fresh, err := xla.Compile(in)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(c.held, fresh) {
					t.Fatalf("%s: held %s program differs from a fresh compile of the %d-node graph", w.Name, c.g.Name(), in.Len())
				}
			}
		}
		nt, ne, err := w.Naive().Programs()
		if err != nil {
			t.Fatal(err)
		}
		if nt != train || ne != eval {
			t.Fatalf("%s: the Naive copy compiled its own programs", w.Name)
		}
	}
}
