package topology

import (
	"slices"
	"sort"
)

// BFS utilities: hop counts, components, and a reusable traversal
// scratch that avoids reallocating visit arrays on hot paths.

// BFSScratch holds reusable traversal state for graphs whose node IDs
// lie in [0, n).
type BFSScratch struct {
	dist  []int32
	queue []int32
	epoch []uint32
	cur   uint32
}

// NewBFSScratch allocates scratch for an ID space of size n.
func NewBFSScratch(n int) *BFSScratch {
	return &BFSScratch{
		dist:  make([]int32, n),
		queue: make([]int32, 0, n),
		epoch: make([]uint32, n),
	}
}

// HopCount returns the minimum hop count from src to dst in g, or -1
// if dst is unreachable. Restrict, when non-nil, limits the traversal
// to vertices for which restrict returns true (src and dst are always
// allowed); this is how intra-cluster hop counts are measured.
func (s *BFSScratch) HopCount(g *Graph, src, dst int, restrict func(int) bool) int {
	if src == dst {
		return 0
	}
	s.cur++
	s.queue = s.queue[:0]
	s.queue = append(s.queue, int32(src))
	s.epoch[src] = s.cur
	s.dist[src] = 0
	for head := 0; head < len(s.queue); head++ {
		v := int(s.queue[head])
		d := s.dist[v]
		for _, w := range g.Neighbors(v) {
			if s.epoch[w] == s.cur {
				continue
			}
			if w == dst {
				return int(d) + 1
			}
			if restrict != nil && !restrict(w) {
				continue
			}
			s.epoch[w] = s.cur
			s.dist[w] = d + 1
			s.queue = append(s.queue, int32(w))
		}
	}
	return -1
}

// DistancesFrom computes hop counts from src to every reachable vertex,
// returning a map. Restrict as in HopCount.
func (s *BFSScratch) DistancesFrom(g *Graph, src int, restrict func(int) bool) map[int]int {
	out := map[int]int{src: 0}
	s.cur++
	s.queue = s.queue[:0]
	s.queue = append(s.queue, int32(src))
	s.epoch[src] = s.cur
	s.dist[src] = 0
	for head := 0; head < len(s.queue); head++ {
		v := int(s.queue[head])
		d := s.dist[v]
		for _, w := range g.Neighbors(v) {
			if s.epoch[w] == s.cur {
				continue
			}
			if restrict != nil && !restrict(w) {
				continue
			}
			s.epoch[w] = s.cur
			s.dist[w] = d + 1
			s.queue = append(s.queue, int32(w))
			out[w] = int(d) + 1
		}
	}
	return out
}

// Components returns the connected components over the given vertex
// set, each sorted ascending, ordered by their smallest vertex.
func Components(g *Graph, vertices []int) [][]int {
	n := g.IDSpace()
	seen := make([]bool, n)
	inSet := make([]bool, n)
	for _, v := range vertices {
		inSet[v] = true
	}
	var comps [][]int
	// Iterate in sorted order for determinism.
	sorted := append([]int(nil), vertices...)
	sortInts(sorted)
	var queue []int
	for _, start := range sorted {
		if seen[start] {
			continue
		}
		seen[start] = true
		queue = queue[:0]
		queue = append(queue, start)
		comp := []int{start}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, w := range g.Neighbors(v) {
				if !inSet[w] || seen[w] {
					continue
				}
				seen[w] = true
				queue = append(queue, w)
				comp = append(comp, w)
			}
		}
		sortInts(comp)
		comps = append(comps, comp)
	}
	return comps
}

// GiantComponent returns the largest connected component over all
// vertices 0..n-1 that appear in g's adjacency (isolated vertices form
// singleton components). Ties break toward the smaller leading vertex.
func GiantComponent(g *Graph, vertices []int) []int {
	comps := Components(g, vertices)
	var best []int
	for _, c := range comps {
		if len(c) > len(best) {
			best = c
		}
	}
	return best
}

// ComponentScratch holds reusable buffers for repeated giant-component
// queries over graphs sharing one ID space. The slice returned by
// Giant aliases the scratch and is valid only until the next call.
type ComponentScratch struct {
	comp   []int32 // node -> component number (1-based); 0 unvisited, -1 outside the vertex set
	sorted []int
	queue  []int
	best   []int
}

// Giant returns the largest connected component over the given vertex
// set, matching GiantComponent's semantics (ties break toward the
// smaller leading vertex; result sorted ascending). The returned slice
// is owned by the scratch.
//
// Components are discovered from their smallest vertex by walking the
// vertices in ascending order; an ascending vertex list (the simulator
// passes its alive nodes, which always are) is walked in place, any
// other is first copied and sorted. The winner is then read off that
// ordered list by its component number, so it comes out ascending with
// no further sort.
func (s *ComponentScratch) Giant(g *Graph, vertices []int) []int {
	n := g.IDSpace()
	if cap(s.comp) < n {
		s.comp = make([]int32, n)
	}
	s.comp = s.comp[:n]
	for i := range s.comp {
		s.comp[i] = -1
	}
	for _, v := range vertices {
		s.comp[v] = 0
	}
	ordered := vertices
	if !slices.IsSorted(vertices) {
		s.sorted = append(s.sorted[:0], vertices...)
		sortInts(s.sorted)
		ordered = s.sorted
	}
	var label, bestLabel int32
	bestSize := 0
	for _, start := range ordered {
		if s.comp[start] != 0 {
			continue
		}
		label++
		s.comp[start] = label
		s.queue = append(s.queue[:0], start)
		for head := 0; head < len(s.queue); head++ {
			for _, w := range g.Neighbors(s.queue[head]) {
				if s.comp[w] != 0 {
					continue
				}
				s.comp[w] = label
				s.queue = append(s.queue, w)
			}
		}
		if len(s.queue) > bestSize {
			bestSize, bestLabel = len(s.queue), label
		}
	}
	s.best = s.best[:0]
	for _, v := range ordered {
		if s.comp[v] == bestLabel {
			s.best = append(s.best, v)
			s.comp[v] = 0 // emit a repeated vertex once
		}
	}
	return s.best
}

// IsConnected reports whether the given vertex set is a single
// connected component in g.
func IsConnected(g *Graph, vertices []int) bool {
	if len(vertices) <= 1 {
		return true
	}
	comps := Components(g, vertices)
	return len(comps) == 1
}

func sortInts(a []int) { sort.Ints(a) }
