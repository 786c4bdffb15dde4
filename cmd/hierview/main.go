// Command hierview builds a static network and pretty-prints its
// recursive ALCA clustered hierarchy in the style of the paper's
// Fig. 1, including example hierarchical addresses.
//
// Usage:
//
//	hierview -n 30 -seed 42
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/addr"
	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hierview: ")

	var (
		n    = flag.Int("n", 30, "node count")
		seed = flag.Uint64("seed", 42, "placement seed")
	)
	flag.Parse()

	cfg := simnet.Config{N: *n, Seed: *seed}
	region := cfg.Region()
	src := rng.NewRoot(*seed).Stream("static-layout")
	pos := make([]geom.Vec, *n)
	for i := range pos {
		pos[i] = region.Sample(src)
	}
	g := topology.BuildUnitDiskBrute(pos, 100)
	all := make([]int, *n)
	for i := range all {
		all[i] = i
	}
	giant := topology.GiantComponent(g, all)
	h, _ := cluster.BuildWithIdentities(g, giant, cluster.Config{}, nil, nil, cluster.NewIdentityTracker(), 0)
	if err := h.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%d nodes placed (giant component %d), %d hierarchy levels\n\n",
		*n, len(giant), h.L())
	runner.RenderHierarchy(os.Stdout, h)

	fmt.Println("\nhierarchical addresses (top-down, like Fig. 1's 100.85.37.63):")
	for i, v := range giant {
		if i%max(1, len(giant)/8) == 0 {
			fmt.Printf("  node %-4d -> %s\n", v, addr.Of(h, v))
		}
	}

	fmt.Printf("\nrouting state: flat %d entries/node, hierarchical %.1f entries/node\n",
		routing.FlatTableSize(len(giant)), routing.MeanHierTableSize(h))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
