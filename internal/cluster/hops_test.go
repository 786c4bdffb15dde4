package cluster

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

// hopFixture is a two-level hierarchy over the path 0-1-2-3 with node
// 4 adjacent to both ends, so 0 and 3 are two hops apart through 4 but
// three hops apart along the path. members maps each level-1 cluster
// (named by its head) to its level-0 members.
func hopFixture(members map[int][]int) (*Hierarchy, *topology.Graph) {
	g := graphOf(5, [2]int{0, 1}, [2]int{1, 2}, [2]int{2, 3}, [2]int{0, 4}, [2]int{3, 4})
	l0 := &Level{K: 0, Nodes: nodesUpTo(5), Graph: g, Members: make([][]int, 5)}
	l1 := &Level{K: 1}
	for head := 0; head < 5; head++ {
		if m, ok := members[head]; ok {
			l0.Members[head] = m
			l1.Nodes = append(l1.Nodes, head)
		}
	}
	return &Hierarchy{Levels: []*Level{l0, l1}, Reach: 1}, g
}

// TestHopSamplerStaysInCluster: the reported count is the hop distance
// inside the cluster, never a shorter path through other clusters, and
// a pair joined only through other clusters yields nothing.
func TestHopSamplerStaysInCluster(t *testing.T) {
	cases := []struct {
		name    string
		members map[int][]int
		max     int // the in-cluster distance of the layout's farthest pair
	}{
		// (0,3) measures 3 along the path; the detour through 4
		// would give 2, the largest unrestricted distance in {0..3}.
		{"path", map[int][]int{0: {0, 1, 2, 3}, 4: {4}}, 3},
		// Inside {0,3} and {1,2,4} only 1-2 is joined; every other
		// pair is 2 hops apart through the other cluster.
		{"split", map[int][]int{0: {0, 3}, 1: {1, 2, 4}}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, g := hopFixture(tc.members)
			var s HopSampler
			got := s.Sample(nil, h, g, 1, rng.New(3), 200, 2000)
			if len(got) == 0 {
				t.Fatal("no samples")
			}
			sawMax := false
			for _, hops := range got {
				if hops < 1 || hops > tc.max {
					t.Fatalf("sampled %d hops, want 1..%d: %v", hops, tc.max, got)
				}
				sawMax = sawMax || hops == tc.max
			}
			if !sawMax {
				t.Fatalf("no sample reached %d hops: %v", tc.max, got)
			}
		})
	}
}

// TestHopSamplerBounds: output stops at pairs, appends after the
// caller's entries, never exceeds attempts, and a warmed sampler does
// not allocate.
func TestHopSamplerBounds(t *testing.T) {
	h, g := hopFixture(map[int][]int{0: {0, 1, 2, 3}, 4: {4}})
	var s HopSampler
	src := rng.New(9)

	got := s.Sample([]int{-1}, h, g, 1, src, 5, 1000)
	if len(got) != 6 || got[0] != -1 {
		t.Fatalf("pairs=5 after one entry: got %v, want -1 then 5 counts", got)
	}
	for _, attempts := range []int{0, 1, 7, 40} {
		if got := s.Sample(nil, h, g, 1, src, 1000, attempts); len(got) > attempts {
			t.Fatalf("attempts=%d: %d samples", attempts, len(got))
		}
	}
	if got := s.Sample(nil, h, g, 2, src, 5, 100); len(got) != 0 {
		t.Fatalf("level above the top: got %v", got)
	}

	buf := make([]int, 0, 64)
	if avg := testing.AllocsPerRun(20, func() { buf = s.Sample(buf[:0], h, g, 1, src, 64, 256) }); avg != 0 {
		t.Fatalf("warmed sampler allocates %.1f times per call", avg)
	}
}
