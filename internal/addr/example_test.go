package addr_test

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cluster"
	"repro/internal/topology"
)

// ExampleCommonLevel reproduces the paper's addressing idea on a tiny
// chain: nodes 1 and 3 share no level-1 cluster but meet at level 2.
func ExampleCommonLevel() {
	g := topology.NewGraph(4)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	h, _ := cluster.BuildWithIdentities(g, []int{1, 2, 3}, cluster.Config{}, nil, nil, cluster.NewIdentityTracker(), 0)

	a1 := addr.Of(h, 1)
	a3 := addr.Of(h, 3)
	fmt.Println("address of 1:", a1)
	fmt.Println("address of 3:", a3)
	fmt.Println("common level:", addr.CommonLevel(a1, a3))
	// Output:
	// address of 1: 3.2.1
	// address of 3: 3.3.3
	// common level: 2
}
