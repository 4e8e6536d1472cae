// Package xla implements the XLA-style compiler that lowers a TPU
// partition graph into the instruction stream the TPU device executes.
//
// Its central pass is operator fusion: chains of compute ops are merged
// into single "fusion" instructions so intermediate results stay in
// registers/HBM-local buffers instead of round-tripping through memory.
// The paper finds exactly this op at the top of every workload's TPU
// profile ("the fusion operator combines compute-intensive operations from
// the XLA compiler and is intended to help reduce memory operations"), so
// the simulated profiles must derive fusion ops the same way: from a real
// pass over the model graph, not from a hard-coded op list.
//
// The pass is a greedy producer-consumer fusion, the same shape as XLA's
// instruction fusion: a contraction (MatMul/Conv) or elementwise op
// absorbs fusible consumers as long as the producer's value has a single
// use. Data-movement ops (Reshape, Transpose, Copy) never fuse — they
// realign memory for the MXU's tiled layout — which is why the paper sees
// Reshape as a separate, expensive operator.
package xla

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/trace"
)

// Instruction is one lowered TPU operation with its cost inputs.
type Instruction struct {
	Name  string // unique instance name, e.g. "fusion.3"
	Op    string // reported op name: "fusion", "MatMul", "Reshape", ...
	FLOPs int64  // arithmetic work
	Bytes int64  // HBM traffic (reads + writes crossing the fusion boundary)
	MXU   bool   // true if the instruction occupies the matrix units
	Fused int    // number of source graph nodes folded in (1 if unfused)
}

// Program is the compiled form of one training step's TPU partition.
// It is a function of its graph alone and read-only once compiled: a
// workload compiles each step graph once, and every device that loads
// it (tpu.Device.LoadProgram keeps the pointer) shares it, also across
// goroutines, so nothing may modify a Program or its Instructions.
type Program struct {
	Name         string
	Instructions []*Instruction

	// Boundary traffic for the step, used by the device to schedule
	// infeed/outfeed transfers.
	InfeedBytes  int64
	OutfeedBytes int64

	// WeightBytes is the total parameter size resident in HBM.
	WeightBytes int64
}

// TotalFLOPs returns the program's arithmetic work per execution.
func (p *Program) TotalFLOPs() int64 {
	var f int64
	for _, in := range p.Instructions {
		f += in.FLOPs
	}
	return f
}

// TotalBytes returns the program's HBM traffic per execution.
func (p *Program) TotalBytes() int64 {
	var b int64
	for _, in := range p.Instructions {
		b += in.Bytes
	}
	return b
}

// CountOp returns how many instructions carry the given reported op name.
func (p *Program) CountOp(op string) int {
	n := 0
	for _, in := range p.Instructions {
		if in.Op == op {
			n++
		}
	}
	return n
}

// Options tune compilation. The zero value is the production configuration.
type Options struct {
	// DisableFusion lowers every op as its own instruction, paying full
	// memory traffic between ops — the ablation baseline that shows what
	// the fusion pass buys.
	DisableFusion bool
}

// Compile lowers a TPU-device graph into a Program.
// The graph must validate and contain only TPU-device nodes (plus
// placeholders standing in for host inputs, which become infeed traffic).
func Compile(g *graph.Graph) (*Program, error) {
	return CompileWithOptions(g, Options{})
}

// CompileWithOptions is Compile with explicit compilation options.
func CompileWithOptions(g *graph.Graph, opts Options) (*Program, error) {
	order, err := g.ValidOrder()
	if err != nil {
		return nil, fmt.Errorf("xla: %w", err)
	}
	consumers := g.Consumers()

	// --- Fusion clustering ---------------------------------------------
	// cluster[i] is the root node of the cluster node i belongs to;
	// contraction[r] says whether the cluster rooted at r holds one.
	cluster := make(map[*graph.Node]*graph.Node, len(order))
	contraction := make(map[*graph.Node]bool)
	for _, n := range order {
		cluster[n] = n
		if n.Kind() == graph.KindContraction {
			contraction[n] = true
		}
	}
	find := func(n *graph.Node) *graph.Node {
		for cluster[n] != n {
			cluster[n] = cluster[cluster[n]] // path halving
			n = cluster[n]
		}
		return n
	}

	for _, n := range order {
		if opts.DisableFusion {
			break
		}
		if !fusibleConsumer(n) {
			continue
		}
		// Try to join the cluster of a fusible producer whose value has a
		// single consumer (us): that value never hits memory.
		for _, in := range n.Inputs {
			if in.Device != trace.TPU {
				continue
			}
			if len(consumers[in]) != 1 {
				continue
			}
			if !fusibleProducer(in) {
				continue
			}
			root := find(in)
			// A cluster may hold at most one contraction: two matmuls
			// in one fusion would serialize on the same MXU pass.
			if n.Kind() == graph.KindContraction && contraction[root] {
				continue
			}
			r := find(n)
			cluster[r] = root
			contraction[root] = contraction[root] || contraction[r]
			break
		}
	}

	// --- Emit instructions in topological order of cluster roots --------
	type clusterInfo struct {
		root  *graph.Node
		nodes []*graph.Node
	}
	infos := make(map[*graph.Node]*clusterInfo)
	var roots []*graph.Node
	for _, n := range order {
		r := find(n)
		ci, ok := infos[r]
		if !ok {
			ci = &clusterInfo{root: r}
			infos[r] = ci
			roots = append(roots, r)
		}
		ci.nodes = append(ci.nodes, n)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ID < roots[j].ID })

	prog := &Program{Name: g.Name()}
	fusionSeq := 0
	for _, r := range roots {
		ci := infos[r]
		inst := emit(ci.nodes, cluster, find, &fusionSeq)
		if inst == nil {
			continue // pure-structural cluster: no runtime work
		}
		prog.Instructions = append(prog.Instructions, inst)
	}

	// --- Boundary traffic ------------------------------------------------
	for _, n := range order {
		switch {
		case n.Op == graph.OpPlaceholder:
			prog.InfeedBytes += n.OutBytes()
		case n.Op == graph.OpConst:
			prog.WeightBytes += n.OutBytes()
		case n.Op == graph.OpOutfeed:
			prog.OutfeedBytes += n.OutBytes()
		case len(consumers[n]) == 0 && n.Kind() != graph.KindOptimizer && n.Op != graph.OpOutfeed:
			// Graph outputs without an explicit Outfeed still leave the
			// device (loss scalars, summaries).
			prog.OutfeedBytes += n.OutBytes()
		}
	}
	return prog, nil
}

// fusibleConsumer reports whether n may join its producer's cluster.
func fusibleConsumer(n *graph.Node) bool {
	switch n.Kind() {
	case graph.KindElementwise, graph.KindReduction, graph.KindNormalize, graph.KindContraction:
		return true
	default:
		return false
	}
}

// fusibleProducer reports whether a node's cluster may absorb consumers.
func fusibleProducer(n *graph.Node) bool {
	switch n.Kind() {
	case graph.KindElementwise, graph.KindContraction, graph.KindNormalize:
		return true
	default:
		return false
	}
}

// emit lowers one cluster to an instruction, or nil for structural-only
// clusters (constants, placeholders) that involve no runtime work.
func emit(nodes []*graph.Node, cluster map[*graph.Node]*graph.Node, find func(*graph.Node) *graph.Node, fusionSeq *int) *Instruction {
	var work []*graph.Node
	for _, n := range nodes {
		if n.Kind() != graph.KindStructural {
			work = append(work, n)
		}
	}
	if len(work) == 0 {
		return nil
	}
	inst := &Instruction{Fused: len(work)}
	root := work[0]

	var flops int64
	var mxu bool
	for _, n := range work {
		flops += n.FLOPs
		if n.Kind() == graph.KindContraction {
			mxu = true
		}
	}
	inst.FLOPs = flops
	inst.MXU = mxu

	// Bytes: traffic crossing the cluster boundary. Inputs from outside
	// the cluster are read; the cluster's terminal outputs are written;
	// per-node extra Bytes (weight reads) always count.
	inCluster := make(map[*graph.Node]bool, len(work))
	for _, n := range work {
		inCluster[n] = true
	}
	var bytes int64
	for _, n := range work {
		bytes += n.Bytes
		for _, in := range n.Inputs {
			if !inCluster[in] {
				bytes += in.OutBytes()
			}
		}
	}
	// Terminal writes: nodes whose consumers are all outside (approximated
	// by the last node of the cluster in topo order, plus any node listed
	// in no other cluster member's inputs).
	consumedInside := make(map[*graph.Node]bool)
	for _, n := range work {
		for _, in := range n.Inputs {
			if inCluster[in] {
				consumedInside[in] = true
			}
		}
	}
	for _, n := range work {
		if !consumedInside[n] {
			bytes += n.OutBytes()
		}
	}
	inst.Bytes = bytes

	if len(work) > 1 {
		inst.Op = "fusion"
		inst.Name = fmt.Sprintf("fusion.%d", *fusionSeq)
		*fusionSeq++
		return inst
	}
	// Singleton: keep the original op identity.
	inst.Op = root.Op
	inst.Name = root.Name
	// Data movement costs double traffic: read + realign + write.
	if root.Kind() == graph.KindDataMove {
		inst.Bytes = 2 * root.OutBytes()
		if root.Bytes > 0 {
			inst.Bytes += root.Bytes
		}
	}
	return inst
}
