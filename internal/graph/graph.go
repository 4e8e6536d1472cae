// Package graph implements the TensorFlow-style computation graph that the
// workload models are expressed in and that the XLA pass compiles.
//
// A Graph is a DAG of Nodes. Each Node runs one Op on a device (host or
// TPU) and produces a single output tensor spec. The package provides the
// pieces of the TensorFlow master that the paper mentions: validation,
// topological ordering, constant folding, and partitioning of the graph
// into per-device subgraphs handed to workers.
package graph

import (
	"errors"
	"fmt"

	"repro/internal/tensor"
	"repro/internal/trace"
)

// Op names used across the repository. They mirror the operator names in
// the paper's Table II so that profiles read like real TPU profiles.
const (
	OpConst         = "Const"
	OpPlaceholder   = "Placeholder"
	OpIdentity      = "Identity"
	OpMatMul        = "MatMul"
	OpConv2D        = "Conv2D"
	OpConv2DBackF   = "Conv2DBackpropFilter"
	OpConv2DBackI   = "Conv2DBackpropInput"
	OpReshape       = "Reshape"
	OpTranspose     = "Transpose"
	OpAdd           = "Add"
	OpSub           = "Sub"
	OpMul           = "Mul"
	OpMaximum       = "Maximum"
	OpMinimum       = "Minimum"
	OpCast          = "Cast"
	OpRelu          = "Relu"
	OpSoftmax       = "Softmax"
	OpTanh          = "Tanh"
	OpSigmoid       = "Sigmoid"
	OpL2Loss        = "L2Loss"
	OpBiasAddGrad   = "BiasAddGrad"
	OpFusedBN       = "FusedBatchNormV3"
	OpFusedBNGrad   = "FusedBatchNormGradV3"
	OpSum           = "Sum"
	OpAllReduce     = "all-reduce"
	OpCopy          = "Copy"
	OpInfeed        = "Infeed"
	OpInfeedDequeue = "InfeedDequeueTuple"
	OpOutfeed       = "Outfeed"
	OpLayerNorm     = "LayerNorm"
	OpGatherV2      = "GatherV2"
	OpDropout       = "Dropout"
	OpCrossEntropy  = "SoftmaxCrossEntropyWithLogits"
	OpAdamUpdate    = "ResourceApplyAdam"
	OpSGDUpdate     = "ResourceApplyGradientDescent"

	// Evaluation-graph metric ops. These appear only in eval steps, which
	// is what lets phase detection tell eval apart from training.
	OpArgMax    = "ArgMax"
	OpEqual     = "Equal"
	OpMean      = "Mean"
	OpTopK      = "TopKV2"
	OpInTopK    = "InTopK"
	OpConcat    = "ConcatV2"
	OpSqueeze   = "Squeeze"
	OpGreater   = "Greater"
	OpNMS       = "NonMaxSuppressionV4"
	OpSigmoidCE = "SigmoidCrossEntropyWithLogits"
)

// Kind classifies ops for the XLA fusion pass and the cost model.
type Kind uint8

// Op kinds. Elementwise ops are fusion candidates; contraction ops map to
// the MXUs; data-movement ops realign memory; the rest are structural.
const (
	KindStructural  Kind = iota // Const, Placeholder, Identity
	KindElementwise             // Add, Mul, Relu, Cast, ...
	KindContraction             // MatMul, Conv2D and gradients
	KindDataMove                // Reshape, Transpose, Copy, Gather
	KindReduction               // Sum, L2Loss, BiasAddGrad, Softmax, all-reduce
	KindNormalize               // batch/layer norm (partially fusible)
	KindTransfer                // Infeed/Outfeed boundary ops
	KindOptimizer               // parameter update ops
)

// kindOf maps op names to kinds. Unknown op names are structural, which
// keeps them out of fusion but still costed.
var kindOf = map[string]Kind{
	OpConst: KindStructural, OpPlaceholder: KindStructural, OpIdentity: KindStructural,
	OpMatMul: KindContraction, OpConv2D: KindContraction,
	OpConv2DBackF: KindContraction, OpConv2DBackI: KindContraction,
	OpReshape: KindDataMove, OpTranspose: KindDataMove, OpCopy: KindDataMove,
	OpGatherV2: KindDataMove,
	OpAdd:      KindElementwise, OpSub: KindElementwise, OpMul: KindElementwise,
	OpMaximum: KindElementwise, OpMinimum: KindElementwise, OpCast: KindElementwise,
	OpRelu: KindElementwise, OpTanh: KindElementwise, OpSigmoid: KindElementwise,
	OpDropout: KindElementwise,
	OpSoftmax: KindReduction, OpL2Loss: KindReduction, OpBiasAddGrad: KindReduction,
	OpSum: KindReduction, OpAllReduce: KindReduction, OpCrossEntropy: KindReduction,
	OpFusedBN: KindNormalize, OpFusedBNGrad: KindNormalize, OpLayerNorm: KindNormalize,
	OpInfeed: KindTransfer, OpInfeedDequeue: KindTransfer, OpOutfeed: KindTransfer,
	OpAdamUpdate: KindOptimizer, OpSGDUpdate: KindOptimizer,
	OpArgMax: KindReduction, OpEqual: KindElementwise, OpMean: KindReduction,
	OpTopK: KindReduction, OpInTopK: KindReduction, OpConcat: KindDataMove,
	OpSqueeze: KindDataMove, OpGreater: KindElementwise, OpNMS: KindReduction,
	OpSigmoidCE: KindReduction,
}

// KindOf returns the kind of an op name.
func KindOf(op string) Kind {
	if k, ok := kindOf[op]; ok {
		return k
	}
	return KindStructural
}

// Node is one operation instance in a graph.
type Node struct {
	ID     int
	Name   string // unique instance name, e.g. "encoder0/attn/MatMul"
	Op     string // op type, e.g. OpMatMul
	Device trace.Device
	Out    tensor.Spec
	Inputs []*Node

	// FLOPs is the arithmetic cost of the node; Bytes is the memory
	// traffic it generates beyond its output (weights read, etc.).
	FLOPs int64
	Bytes int64

	// ConstValue marks Const nodes foldable by the master.
	ConstValue bool
}

// Kind returns the node's op kind.
func (n *Node) Kind() Kind { return KindOf(n.Op) }

// OutBytes returns the encoded size of the node's output tensor.
func (n *Node) OutBytes() int64 { return n.Out.Bytes() }

// Graph is a DAG of nodes under construction or compiled.
type Graph struct {
	name  string
	nodes []*Node
	byNam map[string]*Node
}

// New returns an empty graph with a diagnostic name.
func New(name string) *Graph {
	return &Graph{name: name, byNam: make(map[string]*Node)}
}

// Name returns the graph's name.
func (g *Graph) Name() string { return g.name }

// Nodes returns the nodes in insertion order. Callers must not mutate the
// returned slice.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Len returns the node count.
func (g *Graph) Len() int { return len(g.nodes) }

// Lookup returns the node with the given instance name, or nil.
func (g *Graph) Lookup(name string) *Node { return g.byNam[name] }

// Add appends a node. Name collisions and cross-graph inputs are rejected.
func (g *Graph) Add(name, op string, dev trace.Device, out tensor.Spec, inputs ...*Node) (*Node, error) {
	if name == "" {
		return nil, errors.New("graph: empty node name")
	}
	if _, exists := g.byNam[name]; exists {
		return nil, fmt.Errorf("graph: duplicate node %q", name)
	}
	for _, in := range inputs {
		if in == nil {
			return nil, fmt.Errorf("graph: node %q has nil input", name)
		}
		if g.byNam[in.Name] != in {
			return nil, fmt.Errorf("graph: node %q input %q not in graph", name, in.Name)
		}
	}
	n := &Node{
		ID:     len(g.nodes),
		Name:   name,
		Op:     op,
		Device: dev,
		Out:    out,
		Inputs: append([]*Node(nil), inputs...),
	}
	if op == OpConst {
		n.ConstValue = true
	}
	g.nodes = append(g.nodes, n)
	g.byNam[name] = n
	return n, nil
}

// MustAdd is Add that panics on error; model builders use it because their
// graphs are statically correct by construction.
func (g *Graph) MustAdd(name, op string, dev trace.Device, out tensor.Spec, inputs ...*Node) *Node {
	n, err := g.Add(name, op, dev, out, inputs...)
	if err != nil {
		panic(err)
	}
	return n
}

// Toposort returns the nodes in a topological order. Because Add only
// accepts inputs already present, insertion order is already topological;
// this re-derives it independently (Kahn's algorithm) so Validate can
// detect corruption introduced by direct node mutation. Of the nodes
// ready at each step it takes the one with the lowest ID, so the order
// is a function of the graph alone.
func (g *Graph) Toposort() ([]*Node, error) {
	n := len(g.nodes)
	at := g.positions()
	// The edges as a CSR adjacency over positions in g.nodes: succ holds
	// every consumer of position p in succ[start[p]:start[p+1]]. An
	// input outside g.nodes has position -1: its consumer never becomes
	// ready, as with an edge from a node that never sorts.
	indeg := make([]int32, n)
	start := make([]int32, n+1)
	for i, x := range g.nodes {
		for _, in := range x.Inputs {
			indeg[i]++
			if p := at(in); p >= 0 {
				start[p+1]++
			}
		}
	}
	for p := 0; p < n; p++ {
		start[p+1] += start[p]
	}
	succ := make([]int32, start[n])
	fill := append([]int32(nil), start[:n]...)
	for i, x := range g.nodes {
		for _, in := range x.Inputs {
			if p := at(in); p >= 0 {
				succ[fill[p]] = int32(i)
				fill[p]++
			}
		}
	}
	ready := readyHeap{nodes: g.nodes}
	for i := range g.nodes {
		if indeg[i] == 0 {
			ready.push(int32(i))
		}
	}
	order := make([]*Node, 0, n)
	for len(ready.q) > 0 {
		p := ready.pop()
		order = append(order, g.nodes[p])
		for _, s := range succ[start[p]:start[p+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				ready.push(s)
			}
		}
	}
	if len(order) != n {
		return nil, errors.New("graph: cycle detected")
	}
	return order, nil
}

// positions returns the function mapping a node to its index in
// g.nodes, or -1 for a node not in the graph. A node's ID is its index
// unless the node was mutated; only then does it build a map.
func (g *Graph) positions() func(*Node) int {
	n := len(g.nodes)
	for i, x := range g.nodes {
		if x.ID != i {
			byPtr := make(map[*Node]int, n)
			for i, x := range g.nodes {
				byPtr[x] = i
			}
			return func(x *Node) int {
				if i, ok := byPtr[x]; ok {
					return i
				}
				return -1
			}
		}
	}
	return func(x *Node) int {
		if x.ID >= 0 && x.ID < n && g.nodes[x.ID] == x {
			return x.ID
		}
		return -1
	}
}

// readyHeap is Toposort's ready queue: a binary min-heap of positions
// in nodes, ordered by node ID, then position.
type readyHeap struct {
	nodes []*Node
	q     []int32
}

func (h *readyHeap) less(a, b int32) bool {
	ia, ib := h.nodes[a].ID, h.nodes[b].ID
	return ia < ib || ia == ib && a < b
}

func (h *readyHeap) push(p int32) {
	h.q = append(h.q, p)
	for c := len(h.q) - 1; c > 0; {
		parent := (c - 1) / 2
		if !h.less(h.q[c], h.q[parent]) {
			break
		}
		h.q[c], h.q[parent] = h.q[parent], h.q[c]
		c = parent
	}
}

func (h *readyHeap) pop() int32 {
	top := h.q[0]
	last := len(h.q) - 1
	h.q[0] = h.q[last]
	h.q = h.q[:last]
	for c := 0; ; {
		min, l, r := c, 2*c+1, 2*c+2
		if l < last && h.less(h.q[l], h.q[min]) {
			min = l
		}
		if r < last && h.less(h.q[r], h.q[min]) {
			min = r
		}
		if min == c {
			break
		}
		h.q[c], h.q[min] = h.q[min], h.q[c]
		c = min
	}
	return top
}

// Validate checks structural invariants: acyclicity, unique names, and
// that transfer ops sit on the device boundary they belong to.
func (g *Graph) Validate() error {
	_, err := g.ValidOrder()
	return err
}

// ValidOrder validates g as Validate does and returns its topological
// order (Toposort's), sorting the graph once for both.
func (g *Graph) ValidOrder() ([]*Node, error) {
	order, err := g.Toposort()
	if err != nil {
		return nil, err
	}
	for _, n := range g.nodes {
		switch n.Op {
		case OpInfeed:
			if n.Device != trace.TPU {
				return nil, fmt.Errorf("graph: %s must run on TPU", n.Name)
			}
		case OpOutfeed:
			if n.Device != trace.TPU {
				return nil, fmt.Errorf("graph: %s must run on TPU", n.Name)
			}
		}
		if !n.Out.Shape.Valid() {
			return nil, fmt.Errorf("graph: %s has invalid output shape %v", n.Name, n.Out.Shape)
		}
	}
	return order, nil
}

// Consumers returns, for each node, its consumer list. The map is rebuilt
// per call; passes that need it repeatedly should hold onto it.
func (g *Graph) Consumers() map[*Node][]*Node {
	out := make(map[*Node][]*Node, len(g.nodes))
	for _, n := range g.nodes {
		for _, in := range n.Inputs {
			out[in] = append(out[in], n)
		}
	}
	return out
}

// TotalFLOPs sums FLOPs across all nodes on the given device.
func (g *Graph) TotalFLOPs(dev trace.Device) int64 {
	var total int64
	for _, n := range g.nodes {
		if n.Device == dev {
			total += n.FLOPs
		}
	}
	return total
}

// Stats summarizes a graph for reports: node and FLOP counts per kind.
type Stats struct {
	Nodes       int
	FLOPs       int64
	NodesByKind map[Kind]int
}

// ComputeStats gathers summary statistics for the graph.
func (g *Graph) ComputeStats() Stats {
	s := Stats{NodesByKind: make(map[Kind]int)}
	for _, n := range g.nodes {
		s.Nodes++
		s.FLOPs += n.FLOPs
		s.NodesByKind[n.Kind()]++
	}
	return s
}
