package graph

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/prng"
	"repro/internal/trace"
)

// toposortOracle is the Toposort that re-sorted its ready queue by ID
// before every pop. Toposort pops the lowest ready ID from a heap
// instead and must return the same order, or fail the same way.
func toposortOracle(g *Graph) ([]*Node, error) {
	indeg := make(map[*Node]int, len(g.nodes))
	out := make(map[*Node][]*Node, len(g.nodes))
	for _, n := range g.nodes {
		for _, in := range n.Inputs {
			indeg[n]++
			out[in] = append(out[in], n)
		}
	}
	var queue []*Node
	for _, n := range g.nodes {
		if indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	var order []*Node
	for len(queue) > 0 {
		sort.Slice(queue, func(i, j int) bool { return queue[i].ID < queue[j].ID })
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, succ := range out[n] {
			indeg[succ]--
			if indeg[succ] == 0 {
				queue = append(queue, succ)
			}
		}
	}
	if len(order) != len(g.nodes) {
		return nil, errors.New("graph: cycle detected")
	}
	return order, nil
}

// randomDAG builds a graph of n nodes, each with up to three inputs
// among the nodes before it. With shuffleIDs the nodes' IDs become a
// random permutation, so the lowest-ready-ID rule, not insertion order,
// decides the order; with foreign one node takes an input from another
// graph; with cycle one edge points forward.
func randomDAG(rng *prng.Source, n int, shuffleIDs, foreign, cycle bool) *Graph {
	g := New("rand")
	for i := 0; i < n; i++ {
		var ins []*Node
		if i > 0 {
			for k := rng.Intn(4); k > 0; k-- {
				ins = append(ins, g.nodes[rng.Intn(i)])
			}
		}
		g.MustAdd(fmt.Sprintf("n%d", i), OpAdd, trace.TPU, spec(2), ins...)
	}
	if shuffleIDs {
		for i, p := range rng.Perm(n) {
			g.nodes[i].ID = p
		}
	}
	if foreign && n > 0 {
		alien := New("other").MustAdd("alien", OpConst, trace.TPU, spec(2))
		x := g.nodes[rng.Intn(n)]
		x.Inputs = append(x.Inputs, alien)
	}
	if cycle && n > 1 {
		a := rng.Intn(n - 1)
		b := a + 1 + rng.Intn(n-a-1)
		g.nodes[a].Inputs = append(g.nodes[a].Inputs, g.nodes[b])
	}
	return g
}

// TestToposortMatchesOracle: on random DAGs, with insertion-order and
// shuffled IDs, with inputs from outside the graph and with cycles,
// Toposort returns the oracle's order node for node, or fails where it
// fails.
func TestToposortMatchesOracle(t *testing.T) {
	rng := prng.New(47)
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(80)
		shuffle, foreign, cycle := trial%2 == 1, trial%7 == 3, trial%5 == 4
		g := randomDAG(rng, n, shuffle, foreign, cycle)
		got, gotErr := g.Toposort()
		want, wantErr := toposortOracle(g)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d (n=%d shuffle=%v foreign=%v cycle=%v): err = %v, oracle %v",
				trial, n, shuffle, foreign, cycle, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d nodes, oracle %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: position %d is %s, oracle %s", trial, i, got[i].Name, want[i].Name)
			}
		}
	}
}

// TestValidOrderIsToposort: ValidOrder returns Toposort's order on a
// valid graph and Validate's error on an invalid one.
func TestValidOrderIsToposort(t *testing.T) {
	g, _, _, _, _ := buildDiamond(t)
	order, err := g.ValidOrder()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := g.Toposort()
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("position %d: %s, Toposort %s", i, order[i].Name, want[i].Name)
		}
	}
	bad := New("bad")
	bad.MustAdd("outfeed", OpOutfeed, trace.Host, spec(1))
	if _, err := bad.ValidOrder(); err == nil || bad.Validate() == nil {
		t.Fatal("a host Outfeed validated")
	}
}
