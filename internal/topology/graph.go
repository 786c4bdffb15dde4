// Package topology maintains the level-0 network graph: the unit-disk
// graph induced by node positions and the transmission radius R_TX
// (§1.2 of the paper), plus the graph algorithms the rest of the stack
// needs (BFS hop counts, connected components, degree statistics) and
// link-event diffing between successive scans.
package topology

import (
	"fmt"
	"slices"

	"repro/internal/geom"
)

// EdgeKey packs an unordered node pair (a < b) into a map key.
type EdgeKey uint64

// MakeEdgeKey returns the canonical key for the pair {a, b}.
func MakeEdgeKey(a, b int) EdgeKey {
	if a > b {
		a, b = b, a
	}
	return EdgeKey(uint64(uint32(a))<<32 | uint64(uint32(b)))
}

// Nodes unpacks the pair.
func (k EdgeKey) Nodes() (a, b int) {
	return int(k >> 32), int(uint32(k))
}

// String formats the edge for diagnostics.
func (k EdgeKey) String() string {
	a, b := k.Nodes()
	return fmt.Sprintf("(%d,%d)", a, b)
}

// Graph is an undirected graph over nodes 0..n-1 with adjacency lists
// and an edge set. It is the representation for every level of the
// clustered hierarchy (level 0 uses dense int IDs; higher levels use
// the level-0 IDs of clusterheads, which remain < n).
//
// Edges live in one of two stores: `edges`, a hash set fed by AddEdge
// (used by BuildUnitDiskBrute and tests), and `bulk`, a sorted key
// slice filled by the bulk builders (the unit-disk scans and the
// cluster level graphs), which skip the hash set entirely so the hot
// link scan does no map work and the parallel builder can assemble the
// graph from per-shard buffers. All read accessors consult both
// stores, so mixing AddEdge into a bulk-built graph remains correct.
type Graph struct {
	n     int
	adj   [][]int // node ID -> neighbor IDs, in insertion order
	edges map[EdgeKey]struct{}
	bulk  []EdgeKey // sorted; bulk-built edges
}

// NewGraph returns an empty graph over id space [0, n).
func NewGraph(n int) *Graph {
	return &Graph{n: n, adj: make([][]int, n)}
}

// Reset empties the graph for reuse over id space [0, n), retaining
// all allocated storage (adjacency slices, edge list, hash buckets).
// Together with LinkModel.BuildInto this lets the simulation loop
// double-buffer graphs instead of reallocating one per scan.
//
//manet:hotpath
func (g *Graph) Reset(n int) {
	g.n = n
	if g.edges != nil {
		clear(g.edges)
	}
	g.bulk = g.bulk[:0]
	if cap(g.adj) < n {
		//lint:ignore hotpath amortized capacity growth when the id space expands
		g.adj = append(g.adj[:cap(g.adj)], make([][]int, n-cap(g.adj))...)
	}
	g.adj = g.adj[:n]
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
}

// IDSpace returns the exclusive upper bound of node IDs.
func (g *Graph) IDSpace() int { return g.n }

// AddEdge inserts the undirected edge {a, b}; duplicate inserts and
// self-loops are ignored. Both endpoints must lie in [0, IDSpace()).
func (g *Graph) AddEdge(a, b int) {
	if a == b {
		return
	}
	if a < 0 || a >= g.n || b < 0 || b >= g.n {
		panic(fmt.Sprintf("topology: edge (%d,%d) outside id space [0,%d)", a, b, g.n))
	}
	k := MakeEdgeKey(a, b)
	if g.inBulk(k) {
		return
	}
	if g.edges == nil {
		g.edges = make(map[EdgeKey]struct{})
	}
	if _, ok := g.edges[k]; ok {
		return
	}
	g.edges[k] = struct{}{}
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
}

// inBulk reports whether k is in the sorted bulk edge list.
func (g *Graph) inBulk(k EdgeKey) bool {
	if len(g.bulk) == 0 {
		return false
	}
	_, ok := slices.BinarySearch(g.bulk, k)
	return ok
}

// HasEdge reports whether {a, b} is present.
func (g *Graph) HasEdge(a, b int) bool {
	k := MakeEdgeKey(a, b)
	if _, ok := g.edges[k]; ok {
		return true
	}
	return g.inBulk(k)
}

// Neighbors returns the adjacency list of v (shared slice; do not
// mutate).
func (g *Graph) Neighbors(v int) []int {
	if v < 0 || v >= len(g.adj) {
		return nil
	}
	return g.adj[v]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.Neighbors(v)) }

// EdgeCount returns |E|.
func (g *Graph) EdgeCount() int { return len(g.edges) + len(g.bulk) }

// Edges returns all edge keys in ascending order (deterministic).
func (g *Graph) Edges() []EdgeKey {
	return g.AppendEdges(make([]EdgeKey, 0, g.EdgeCount()))
}

// Equal reports whether g and o have the same edge set, regardless of
// which store (bulk or incremental) each edge lives in.
func (g *Graph) Equal(o *Graph) bool {
	if g == nil || o == nil {
		return g == o
	}
	if g.EdgeCount() != o.EdgeCount() {
		return false
	}
	equal := true
	g.ForEachEdge(func(e EdgeKey) {
		if equal {
			a, b := e.Nodes()
			equal = o.HasEdge(a, b)
		}
	})
	return equal
}

// ForEachEdge invokes fn once per edge. Bulk-built edges are visited
// in ascending key order; incrementally added edges follow in
// unspecified order, so fn must be order-free unless the graph is
// known to be bulk-built (use AppendEdges for a sorted view).
func (g *Graph) ForEachEdge(fn func(EdgeKey)) {
	for _, k := range g.bulk {
		fn(k)
	}
	//lint:ignore maprange callers are documented order-free; sorted traversal goes through AppendEdges
	for k := range g.edges {
		fn(k)
	}
}

// MeanDegree returns 2|E| / |V'| over the given vertex set.
func (g *Graph) MeanDegree(vertices []int) float64 {
	if len(vertices) == 0 {
		return 0
	}
	total := 0
	for _, v := range vertices {
		total += len(g.adj[v])
	}
	return float64(total) / float64(len(vertices))
}

// BuildFromSortedEdgesInto materializes a graph from an ascending edge
// key list (a cluster level's lifted edges, or the incremental
// maintainer's per-level edge set):
// g is Reset (or allocated when nil), the keys are copied into the
// bulk store, and adjacency lists are filled in key order. The caller
// must pass keys sorted ascending with no duplicates.
//
//manet:hotpath
func BuildFromSortedEdgesInto(g *Graph, n int, edges []EdgeKey) *Graph {
	if g == nil {
		//lint:ignore hotpath warm-up: nil dst allocates the double-buffered graph once
		g = NewGraph(n)
	} else {
		g.Reset(n)
	}
	g.bulk = append(g.bulk, edges...)
	for _, k := range edges {
		a, b := k.Nodes()
		g.adj[a] = append(g.adj[a], b)
		g.adj[b] = append(g.adj[b], a)
	}
	return g
}

// BuildUnitDiskBrute is the O(n²) reference construction, used by
// tests and tiny static scenarios.
func BuildUnitDiskBrute(pos []geom.Vec, rtx float64) *Graph {
	g := NewGraph(len(pos))
	r2 := rtx * rtx
	for i := range pos {
		for j := i + 1; j < len(pos); j++ {
			if pos[i].Dist2(pos[j]) <= r2 {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// LinkEvent is a single level-0 link state change detected between two
// successive scans.
type LinkEvent struct {
	Edge EdgeKey
	Up   bool // true: link created; false: link broken
}

// AppendEdges appends all edge keys in ascending order to dst and
// returns the extended slice (pass dst[:0] to reuse its capacity).
func (g *Graph) AppendEdges(dst []EdgeKey) []EdgeKey {
	base := len(dst)
	dst = append(dst, g.bulk...)
	if len(g.edges) > 0 {
		for k := range g.edges {
			dst = append(dst, k)
		}
		slices.Sort(dst[base:])
	}
	return dst
}

// DiffEdges compares the edge sets of prev and next and returns the
// link events, deterministically ordered (downs then ups, each by key).
func DiffEdges(prev, next *Graph) []LinkEvent {
	var s DiffScratch
	out := s.Diff(prev, next)
	// Detach from the scratch so the result owns its storage.
	return append([]LinkEvent(nil), out...)
}

// DiffScratch holds reusable buffers for edge-set diffing. The slice
// returned by Diff aliases the scratch and is valid only until the
// next Diff call; callers that retain events must copy them.
type DiffScratch struct {
	prevKeys, nextKeys []EdgeKey
	ups                []EdgeKey
	out                []LinkEvent
}

// Diff compares the edge sets of prev and next and returns the link
// events, deterministically ordered (downs then ups, each by key).
// The returned slice is owned by the scratch.
func (s *DiffScratch) Diff(prev, next *Graph) []LinkEvent {
	s.prevKeys = prev.AppendEdges(s.prevKeys[:0])
	s.nextKeys = next.AppendEdges(s.nextKeys[:0])
	s.ups = s.ups[:0]
	s.out = s.out[:0]
	// Merge-walk the two sorted key lists: keys only in prev are downs
	// (emitted immediately, already in order), keys only in next are
	// ups (buffered so downs precede them).
	i, j := 0, 0
	for i < len(s.prevKeys) && j < len(s.nextKeys) {
		switch {
		case s.prevKeys[i] == s.nextKeys[j]:
			i++
			j++
		case s.prevKeys[i] < s.nextKeys[j]:
			s.out = append(s.out, LinkEvent{Edge: s.prevKeys[i], Up: false})
			i++
		default:
			s.ups = append(s.ups, s.nextKeys[j])
			j++
		}
	}
	for ; i < len(s.prevKeys); i++ {
		s.out = append(s.out, LinkEvent{Edge: s.prevKeys[i], Up: false})
	}
	s.ups = append(s.ups, s.nextKeys[j:]...)
	for _, k := range s.ups {
		s.out = append(s.out, LinkEvent{Edge: k, Up: true})
	}
	return s.out
}
