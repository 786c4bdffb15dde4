package addr

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/topology"
)

// buildChainHierarchy: 1-2-3 chain produces clusters {1,2}->2, {3}->3,
// then level-1 edge (2,3) yields top cluster 3.
func buildChainHierarchy() *cluster.Hierarchy {
	g := topology.NewGraph(4)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	return build(g, []int{1, 2, 3}, cluster.Config{})
}

func TestOfAndString(t *testing.T) {
	h := buildChainHierarchy()
	a1 := Of(h, 1)
	if a1.Node != 1 {
		t.Fatalf("node = %d", a1.Node)
	}
	if a1.ClusterAt(1) != 2 {
		t.Fatalf("level-1 cluster of 1 = %d, want 2", a1.ClusterAt(1))
	}
	if a1.ClusterAt(2) != 3 {
		t.Fatalf("level-2 cluster of 1 = %d, want 3", a1.ClusterAt(2))
	}
	if a1.ClusterAt(3) != -1 || a1.ClusterAt(0) != -1 {
		t.Fatal("out-of-range ClusterAt should be -1")
	}
	if got := a1.String(); got != "3.2.1" {
		t.Fatalf("String = %q, want 3.2.1", got)
	}
	if a1.Levels() != 2 {
		t.Fatalf("Levels = %d", a1.Levels())
	}
}

func TestCommonLevel(t *testing.T) {
	h := buildChainHierarchy()
	a1, a2, a3 := Of(h, 1), Of(h, 2), Of(h, 3)
	if got := CommonLevel(a1, a1); got != 0 {
		t.Fatalf("self common level = %d", got)
	}
	// 1 and 2 share the level-1 cluster (head 2).
	if got := CommonLevel(a1, a2); got != 1 {
		t.Fatalf("CommonLevel(1,2) = %d", got)
	}
	// 1 and 3 only meet at level 2.
	if got := CommonLevel(a1, a3); got != 2 {
		t.Fatalf("CommonLevel(1,3) = %d", got)
	}
	// Symmetry.
	if CommonLevel(a1, a3) != CommonLevel(a3, a1) {
		t.Fatal("CommonLevel not symmetric")
	}
}

func TestCommonLevelDisjoint(t *testing.T) {
	// Two separate components never share a cluster.
	g := topology.NewGraph(6)
	g.AddEdge(1, 2)
	g.AddEdge(4, 5)
	h := build(g, []int{1, 2, 4, 5}, cluster.Config{})
	a, b := Of(h, 1), Of(h, 4)
	if got := CommonLevel(a, b); got != -1 {
		t.Fatalf("disjoint common level = %d", got)
	}
}

func TestEqual(t *testing.T) {
	h := buildChainHierarchy()
	a := Of(h, 1)
	b := Of(h, 1)
	if !a.Equal(b) {
		t.Fatal("identical addresses not equal")
	}
	c := Of(h, 2)
	if a.Equal(c) {
		t.Fatal("distinct addresses equal")
	}
	// Same node, different chain.
	d := Address{Node: 1, Chain: []int{9}}
	if a.Equal(d) {
		t.Fatal("differing chains equal")
	}
}

func TestDivergenceLevels(t *testing.T) {
	a := Address{Node: 1, Chain: []int{2, 3, 9}}
	b := Address{Node: 1, Chain: []int{2, 7, 9}}
	if got := DivergenceLevels(a, b); got != 1 {
		t.Fatalf("divergence = %d, want 1", got)
	}
	// Different lengths: the missing level counts.
	c := Address{Node: 1, Chain: []int{2, 3}}
	if got := DivergenceLevels(a, c); got != 1 {
		t.Fatalf("divergence with shorter chain = %d, want 1", got)
	}
	if got := DivergenceLevels(a, a); got != 0 {
		t.Fatalf("self divergence = %d", got)
	}
}

// build is the hierarchy of a first snapshot.
func build(g *topology.Graph, nodes []int, cfg cluster.Config) *cluster.Hierarchy {
	h, _ := cluster.BuildWithIdentities(g, nodes, cfg, nil, nil, cluster.NewIdentityTracker(), 0)
	return h
}
