package cluster

import (
	"repro/internal/rng"
	"repro/internal/topology"
)

// HopSampler measures intra-cluster hop counts h_k (the paper's Eq. 3):
// the level-0 hop distance between two random descendants of a random
// level-k cluster, with the search confined to that cluster's
// descendants. It reuses its buffers across calls, so a sampler that
// has seen the largest graph and cluster does not allocate. The zero
// value is ready to use; a sampler is not safe for concurrent use.
type HopSampler struct {
	bfs   *topology.BFSScratch
	desc  []int
	in    []bool // in[v]: v is a descendant of the cluster being probed
	allow func(int) bool
}

// Sample appends the hop counts of up to pairs probes of level k to dst
// and returns the extended slice. It makes at most attempts draws of a
// cluster; an attempt yields nothing when the cluster has fewer than
// two descendants, both endpoints coincide, or they are not connected
// inside the cluster. Every draw comes from src, in a fixed order, so
// equal inputs give equal samples and leave src in equal states.
func (s *HopSampler) Sample(dst []int, h *Hierarchy, g *topology.Graph, k int, src *rng.Source, pairs, attempts int) []int {
	clusters := h.LevelNodes(k)
	if len(clusters) == 0 {
		return dst
	}
	if n := g.IDSpace(); len(s.in) < n {
		s.bfs = topology.NewBFSScratch(n)
		s.in = make([]bool, n)
	}
	if s.allow == nil {
		s.allow = func(v int) bool { return s.in[v] }
	}
	start := len(dst)
	for try := 0; try < attempts && len(dst)-start < pairs; try++ {
		c := clusters[src.Intn(len(clusters))]
		s.desc = h.DescendantsInto(s.desc[:0], k, c)
		if len(s.desc) < 2 {
			continue
		}
		a := s.desc[src.Intn(len(s.desc))]
		b := s.desc[src.Intn(len(s.desc))]
		if a == b {
			continue
		}
		for _, v := range s.desc {
			s.in[v] = true
		}
		hops := s.bfs.HopCount(g, a, b, s.allow)
		for _, v := range s.desc {
			s.in[v] = false
		}
		if hops > 0 {
			dst = append(dst, hops)
		}
	}
	return dst
}
