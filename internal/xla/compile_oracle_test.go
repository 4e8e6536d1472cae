package xla

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/trace"
)

// compileOracle is CompileWithOptions as it was before a cluster carried
// a contraction flag and the graph was sorted once: it validates (one
// toposort), sorts again, and asks clusterHasContraction, a walk of the
// whole order, for every contraction that might join a cluster. The
// shipped compile must give reflect.DeepEqual programs.
func compileOracle(g *graph.Graph, opts Options) (*Program, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("xla: %w", err)
	}
	order, err := g.Toposort()
	if err != nil {
		return nil, err
	}
	consumers := g.Consumers()

	// --- Fusion clustering ---------------------------------------------
	// cluster[i] is the root node of the cluster node i belongs to.
	cluster := make(map[*graph.Node]*graph.Node, len(order))
	for _, n := range order {
		cluster[n] = n
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
			if n.Kind() == graph.KindContraction && clusterHasContractionOracle(root, cluster, order) {
				continue
			}
			cluster[find(n)] = root
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

func clusterHasContractionOracle(root *graph.Node, cluster map[*graph.Node]*graph.Node, order []*graph.Node) bool {
	for _, n := range order {
		if n.Kind() != graph.KindContraction {
			continue
		}
		r := n
		for cluster[r] != r {
			r = cluster[r]
		}
		if r == root {
			return true
		}
	}
	return false
}
