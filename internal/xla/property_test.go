package xla

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// randomGraph builds a random but well-formed TPU step graph: a chain of
// layers with random op kinds, occasional fan-out, and per-node FLOPs.
func randomGraph(seed uint64, n int) *graph.Graph {
	rng := prng.New(seed)
	g := graph.New(fmt.Sprintf("rand-%d", seed))
	spec := tensor.NewSpec(tensor.BFloat16, 8, 64)
	nodes := []*graph.Node{
		g.MustAdd("in", graph.OpPlaceholder, trace.TPU, spec),
	}
	ops := []string{
		graph.OpMatMul, graph.OpAdd, graph.OpRelu, graph.OpTanh,
		graph.OpReshape, graph.OpTranspose, graph.OpSoftmax,
		graph.OpMul, graph.OpSum, graph.OpFusedBN, graph.OpLayerNorm,
	}
	for i := 0; i < n; i++ {
		op := ops[rng.Intn(len(ops))]
		in := nodes[rng.Intn(len(nodes))]
		var inputs []*graph.Node
		inputs = append(inputs, in)
		if op == graph.OpMatMul {
			w := g.MustAdd(fmt.Sprintf("w%d", i), graph.OpConst, trace.TPU, spec)
			inputs = append(inputs, w)
		}
		nd := g.MustAdd(fmt.Sprintf("n%d", i), op, trace.TPU, spec, inputs...)
		nd.FLOPs = int64(rng.Intn(1_000_000))
	}
	return g
}

// Property: compilation conserves FLOPs exactly and never produces a
// negative-cost or zero-fused instruction, fused or not.
func TestPropertyCompileConservesFLOPs(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		n := 1 + int(sizeRaw%60)
		g := randomGraph(seed, n)
		for _, opts := range []Options{{}, {DisableFusion: true}} {
			p, err := CompileWithOptions(g, opts)
			if err != nil {
				return false
			}
			if p.TotalFLOPs() != g.TotalFLOPs(trace.TPU) {
				return false
			}
			for _, inst := range p.Instructions {
				if inst.FLOPs < 0 || inst.Bytes < 0 || inst.Fused < 1 {
					return false
				}
				if inst.Op == "" || inst.Name == "" {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: fusion never increases instruction count or HBM traffic
// relative to the unfused lowering of the same graph.
func TestPropertyFusionNeverHurts(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		n := 2 + int(sizeRaw%60)
		g := randomGraph(seed, n)
		fused, err := Compile(g)
		if err != nil {
			return false
		}
		unfused, err := CompileWithOptions(g, Options{DisableFusion: true})
		if err != nil {
			return false
		}
		return len(fused.Instructions) <= len(unfused.Instructions) &&
			fused.TotalBytes() <= unfused.TotalBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every non-structural graph node lands in exactly one
// instruction (the Fused counts sum to the work-node count).
func TestPropertyNoWorkLost(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		n := 1 + int(sizeRaw%60)
		g := randomGraph(seed, n)
		p, err := Compile(g)
		if err != nil {
			return false
		}
		workNodes := 0
		for _, nd := range g.Nodes() {
			if nd.Kind() != graph.KindStructural {
				workNodes++
			}
		}
		fusedSum := 0
		for _, inst := range p.Instructions {
			fusedSum += inst.Fused
		}
		return fusedSum == workNodes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: on random graphs, with fusion on and off, the compile gives
// the programs of compileOracle, the compile it replaced.
func TestPropertyCompileMatchesOracle(t *testing.T) {
	f := func(seed uint64, sizeRaw uint8) bool {
		g := randomGraph(seed, 1+int(sizeRaw%120))
		for _, opts := range []Options{{}, {DisableFusion: true}} {
			got, err := CompileWithOptions(g, opts)
			if err != nil {
				return false
			}
			want, err := compileOracle(g, opts)
			if err != nil || !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
