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
// The edge set is one sorted key slice. The bulk builders produce it
// in key order by construction, with no sort: the link scans read it
// off the finished adjacency rows (row a contributes its neighbours
// b > a, ordered within the row), and the cluster level graphs lift
// their edges cluster by cluster in ascending order. So the hot link
// scan does no map work and the parallel builder can assemble the
// graph from per-shard buffers; AddEdge (used by BuildUnitDiskBrute
// and tests) inserts at the key's sorted position.
type Graph struct {
	n    int
	adj  [][]int   // node ID -> neighbor IDs, in insertion order
	bulk []EdgeKey // sorted edge keys
}

// NewGraph returns an empty graph over id space [0, n).
func NewGraph(n int) *Graph {
	return &Graph{n: n, adj: make([][]int, n)}
}

// Reset empties the graph for reuse over id space [0, n), retaining
// all allocated storage (adjacency slices, edge list).
// Together with LinkModel.BuildInto this lets the simulation loop
// double-buffer graphs instead of reallocating one per scan.
func (g *Graph) Reset(n int) {
	g.n = n
	g.bulk = g.bulk[:0]
	if cap(g.adj) < n {
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
	i, found := slices.BinarySearch(g.bulk, k)
	if found {
		return
	}
	g.bulk = slices.Insert(g.bulk, i, k)
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
}

// HasEdge reports whether {a, b} is present.
func (g *Graph) HasEdge(a, b int) bool {
	_, ok := slices.BinarySearch(g.bulk, MakeEdgeKey(a, b))
	return ok
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
func (g *Graph) EdgeCount() int { return len(g.bulk) }

// Edges returns all edge keys in ascending order (deterministic).
func (g *Graph) Edges() []EdgeKey {
	return g.AppendEdges(make([]EdgeKey, 0, g.EdgeCount()))
}

// Equal reports whether g and o have the same edge set.
func (g *Graph) Equal(o *Graph) bool {
	if g == nil || o == nil {
		return g == o
	}
	return slices.Equal(g.bulk, o.bulk)
}

// ForEachEdge invokes fn once per edge, in ascending key order.
func (g *Graph) ForEachEdge(fn func(EdgeKey)) {
	for _, k := range g.bulk {
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
// key list (a cluster level's lifted edges): g is Reset (or allocated
// when nil), the keys are copied into the bulk store, and adjacency
// lists are filled in key order. The caller must pass keys sorted
// ascending with no duplicates.
func BuildFromSortedEdgesInto(g *Graph, n int, edges []EdgeKey) *Graph {
	if g == nil {
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
	return append(dst, g.bulk...)
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
	ups []EdgeKey
	out []LinkEvent
}

// Diff compares the edge sets of prev and next and returns the link
// events, deterministically ordered (downs then ups, each by key).
// The returned slice is owned by the scratch.
func (s *DiffScratch) Diff(prev, next *Graph) []LinkEvent {
	s.ups = s.ups[:0]
	s.out = s.out[:0]
	// Merge-walk the two sorted edge stores (neither graph changes
	// during the call): keys only in prev are downs (emitted
	// immediately, already in order), keys only in next are ups
	// (buffered so downs precede them).
	pk, nk := prev.bulk, next.bulk
	i, j := 0, 0
	for i < len(pk) && j < len(nk) {
		switch {
		case pk[i] == nk[j]:
			i++
			j++
		case pk[i] < nk[j]:
			s.out = append(s.out, LinkEvent{Edge: pk[i], Up: false})
			i++
		default:
			s.ups = append(s.ups, nk[j])
			j++
		}
	}
	for ; i < len(pk); i++ {
		s.out = append(s.out, LinkEvent{Edge: pk[i], Up: false})
	}
	s.ups = append(s.ups, nk[j:]...)
	for _, k := range s.ups {
		s.out = append(s.out, LinkEvent{Edge: k, Up: true})
	}
	return s.out
}
