// Package routing implements strict hierarchical routing over the
// clustered hierarchy (§2.1, following Steenstrup's description the
// paper cites as [14]) and a flat link-state baseline. It measures the
// two quantities the paper's motivation rests on: per-node routing
// table size — Θ(log|V|) hierarchical vs Θ(|V|) flat, the
// Kleinrock–Kamoun reduction — and the path stretch hierarchical
// forwarding pays for it.
package routing

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/topology"
)

// FlatTableSize returns the per-node routing table entry count of a
// flat link-state protocol: one entry per other destination.
func FlatTableSize(n int) int {
	if n <= 0 {
		return 0
	}
	return n - 1
}

// HierTableSize returns node v's routing table entry count under
// strict hierarchical routing: one entry per sibling cluster at every
// level of v's ancestor chain (the node's "hierarchical map", §2.1),
// plus its level-0 neighbors.
func HierTableSize(h *cluster.Hierarchy, v int) int {
	entries := len(h.Level(0).Graph.Neighbors(v))
	chain := h.AncestorChain(v)
	for k := 1; k <= len(chain); k++ {
		// All members of the level-k cluster except v's own
		// level-(k-1) cluster.
		entries += len(h.MembersAt(k, chain[k-1])) - 1
	}
	return entries
}

// MeanHierTableSize averages HierTableSize over all nodes.
func MeanHierTableSize(h *cluster.Hierarchy) float64 {
	nodes := h.LevelNodes(0)
	if len(nodes) == 0 {
		return 0
	}
	total := 0
	for _, v := range nodes {
		total += HierTableSize(h, v)
	}
	return float64(total) / float64(len(nodes))
}

// Router computes concrete forwarding paths.
//
// A Router is reusable across hierarchy snapshots: Rebind points it at
// the next snapshot while keeping every internal buffer, so steady-state
// path computations (HierPathLen, FlatPathLen, Stretch) allocate
// nothing. All BFS state is epoch-stamped — membership sets and visit
// marks are slices indexed by level-0 node ID (cluster IDs at every
// level are level-0 IDs of their heads), invalidated by bumping a
// counter instead of clearing. Not safe for concurrent use; give each
// serving worker its own Router.
type Router struct {
	h       *cluster.Hierarchy
	g       *topology.Graph // level-0 graph
	scratch *topology.BFSScratch

	// Epoch-stamped BFS scratch shared by clusterGraphPath,
	// borderEdge, and intraClusterPath (each call bumps cur and
	// restamps the sets it needs).
	cur    uint32
	allow  []uint32 // allowed-set membership stamp
	target []uint32 // borderEdge destination-set stamp
	seen   []uint32 // BFS visit stamp
	parent []int32  // BFS parent links

	queue  []int32 // BFS frontier
	cpath  []int   // clusterGraphPath output buffer
	seg    []int   // intraClusterPath output buffer
	path   []int   // HierPathLen's path buffer
	chainS []int   // commonLevel ancestor chains
	chainD []int
	chainT []int // ancestorAt's chain buffer
	desc   []int // descendants ping-pong buffers
	desc2  []int
}

// NewRouter builds a router over one hierarchy snapshot.
func NewRouter(h *cluster.Hierarchy) *Router {
	r := &Router{}
	r.Rebind(h)
	return r
}

// Rebind points the router at a new hierarchy snapshot, reusing every
// internal buffer. The ID space may grow between snapshots; buffers
// are re-sized (and epochs reset) only then.
func (r *Router) Rebind(h *cluster.Hierarchy) {
	r.h = h
	r.g = h.Level(0).Graph
	if n := r.g.IDSpace(); len(r.allow) < n {
		r.scratch = topology.NewBFSScratch(n)
		r.allow = make([]uint32, n)
		r.target = make([]uint32, n)
		r.seen = make([]uint32, n)
		r.parent = make([]int32, n)
		r.cur = 0
	}
}

// FlatPathLen returns the true shortest-path hop count, or -1 when
// unreachable.
func (r *Router) FlatPathLen(s, d int) int {
	return r.scratch.HopCount(r.g, s, d, nil)
}

// HierPath computes the path a strictly hierarchically routed packet
// takes from s to d: at each stage the packet is routed toward the
// destination's highest differing cluster, descending the hierarchy as
// it enters shared clusters, with intra-cluster segments confined to
// the cluster being traversed. Returns nil when s and d share no
// cluster.
func (r *Router) HierPath(s, d int) []int {
	p, ok := r.hierPathInto(nil, s, d)
	if !ok {
		return nil
	}
	return p
}

// hierPathInto is HierPath into a caller-owned buffer; ok reports
// whether a path exists. The returned slice is the (possibly grown)
// buffer either way, so callers can keep it for reuse.
func (r *Router) hierPathInto(dst []int, s, d int) ([]int, bool) {
	if s == d {
		return append(dst, s), true
	}
	common := r.commonLevel(s, d)
	if common < 0 {
		return dst, false
	}
	path := append(dst, s)
	cur := s
	for level := common; level >= 1; level-- {
		// Inside the shared level-`level` cluster, walk the
		// level-(level-1) cluster graph from cur's cluster to d's
		// cluster, crossing border edges.
		target := r.ancestorAt(d, level-1)
		curCluster := r.ancestorAt(cur, level-1)
		if curCluster == target {
			continue
		}
		shared := r.ancestorAt(d, level)
		cpath := r.clusterGraphPath(level-1, shared, level, curCluster, target)
		if cpath == nil {
			return path, false // transient inconsistency; treat as unreachable
		}
		for i := 0; i+1 < len(cpath); i++ {
			from, to := cpath[i], cpath[i+1]
			a, b := r.borderEdge(level-1, from, to)
			if a < 0 {
				return path, false
			}
			// Walk inside the current cluster to the border node.
			seg := r.intraClusterPath(cur, a, level-1, from)
			if seg == nil {
				return path, false
			}
			path = append(path, seg[1:]...)
			if a != b {
				path = append(path, b)
			}
			cur = b
		}
	}
	// Final intra-level-1-cluster leg (or same-node).
	if cur != d {
		seg := r.intraClusterPath(cur, d, 0, -1)
		if seg == nil {
			return path, false
		}
		path = append(path, seg[1:]...)
	}
	return path, true
}

// HierPathLen returns the hierarchical path hop count, or -1. Unlike
// HierPath it reuses an internal path buffer and allocates nothing in
// steady state.
func (r *Router) HierPathLen(s, d int) int {
	p, ok := r.hierPathInto(r.path[:0], s, d)
	r.path = p
	if !ok {
		return -1
	}
	return len(p) - 1
}

// Stretch returns the ratio of hierarchical to shortest path length
// for a reachable pair, or -1 when either is unreachable.
func (r *Router) Stretch(s, d int) float64 {
	flat := r.FlatPathLen(s, d)
	hier := r.HierPathLen(s, d)
	if flat <= 0 || hier < 0 {
		return -1
	}
	return float64(hier) / float64(flat)
}

// commonLevel returns the smallest k with shared level-k cluster, or -1.
func (r *Router) commonLevel(s, d int) int {
	r.chainS = r.h.AppendAncestorChain(s, r.chainS[:0])
	r.chainD = r.h.AppendAncestorChain(d, r.chainD[:0])
	cs, cd := r.chainS, r.chainD
	min := len(cs)
	if len(cd) < min {
		min = len(cd)
	}
	for k := 1; k <= min; k++ {
		if cs[k-1] == cd[k-1] {
			return k
		}
	}
	return -1
}

// ancestorAt returns v's level-j cluster; for j == 0 it is v itself.
func (r *Router) ancestorAt(v, j int) int {
	if j == 0 {
		return v
	}
	r.chainT = r.h.AppendAncestorChain(v, r.chainT[:0])
	if j > len(r.chainT) {
		return -1
	}
	return r.chainT[j-1]
}

// nextEpoch bumps the stamp epoch, clearing the stamp arrays on the
// (astronomically rare) uint32 wrap so stale stamps can never alias.
func (r *Router) nextEpoch() uint32 {
	r.cur++
	if r.cur == 0 {
		for i := range r.allow {
			r.allow[i] = 0
			r.target[i] = 0
			r.seen[i] = 0
		}
		r.cur = 1
	}
	return r.cur
}

// descendants returns the level-0 descendants of the level-k cluster c
// into a reused buffer (unsorted, unlike Hierarchy.Descendants — every
// use here is order-independent). Valid until the next descendants call.
func (r *Router) descendants(k, c int) []int {
	cur := append(r.desc[:0], c)
	other := r.desc2[:0]
	if k >= len(r.h.Levels) {
		return cur[:0]
	}
	for lvl := k - 1; lvl >= 0; lvl-- {
		other = other[:0]
		for _, cc := range cur {
			other = append(other, r.h.Levels[lvl].MembersOf(cc)...)
		}
		cur, other = other, cur
	}
	r.desc, r.desc2 = cur, other
	return cur
}

// clusterGraphPath BFS-walks the level-j cluster graph restricted to
// members of the shared level-(j+1) cluster, from cluster a to b.
func (r *Router) clusterGraphPath(j, shared, sharedLevel, a, b int) []int {
	lvl := r.h.Level(j)
	if lvl == nil || lvl.Graph == nil {
		return nil
	}
	cur := r.nextEpoch()
	for _, m := range r.h.MembersAt(sharedLevel, shared) {
		r.allow[m] = cur
	}
	if r.allow[a] != cur || r.allow[b] != cur {
		return nil
	}
	// BFS with parent tracking over the level-j graph.
	r.seen[a] = cur
	r.parent[a] = int32(a)
	r.queue = append(r.queue[:0], int32(a))
	for head := 0; head < len(r.queue); head++ {
		v := int(r.queue[head])
		if v == b {
			break
		}
		for _, w := range lvl.Graph.Neighbors(v) {
			if r.allow[w] != cur || r.seen[w] == cur {
				continue
			}
			r.seen[w] = cur
			r.parent[w] = int32(v)
			r.queue = append(r.queue, int32(w))
		}
	}
	if r.seen[b] != cur {
		return nil
	}
	rev := r.cpath[:0]
	for v := b; ; v = int(r.parent[v]) {
		rev = append(rev, v)
		if v == int(r.parent[v]) {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	r.cpath = rev
	return rev
}

// borderEdge finds a level-0 edge (a, b) with a inside cluster `from`
// and b inside cluster `to` (both level-j clusters); returns the
// smallest such pair, or (-1, -1).
func (r *Router) borderEdge(j, from, to int) (int, int) {
	cur := r.nextEpoch()
	for _, v := range r.descendants(j, to) {
		r.target[v] = cur
	}
	bestA, bestB := -1, -1
	for _, a := range r.descendants(j, from) {
		for _, b := range r.g.Neighbors(a) {
			if r.target[b] == cur {
				if bestA == -1 || a < bestA || (a == bestA && b < bestB) {
					bestA, bestB = a, b
				}
			}
		}
	}
	return bestA, bestB
}

// intraClusterPath walks level-0 hops from s to d restricted to the
// level-0 descendants of the level-j cluster c (j == 0 or c == -1
// means no restriction).
func (r *Router) intraClusterPath(s, d, j, c int) []int {
	if s == d {
		r.seg = append(r.seg[:0], s)
		return r.seg
	}
	cur := r.nextEpoch()
	restricted := false
	if j >= 1 && c >= 0 {
		restricted = true
		for _, v := range r.descendants(j, c) {
			r.allow[v] = cur
		}
		if r.allow[s] != cur || r.allow[d] != cur {
			return nil
		}
	}
	// BFS with parents on the level-0 graph.
	r.seen[s] = cur
	r.parent[s] = int32(s)
	r.queue = append(r.queue[:0], int32(s))
	found := false
	for head := 0; head < len(r.queue) && !found; head++ {
		v := int(r.queue[head])
		for _, w := range r.g.Neighbors(v) {
			if r.seen[w] == cur {
				continue
			}
			if w != d && restricted && r.allow[w] != cur {
				continue
			}
			r.seen[w] = cur
			r.parent[w] = int32(v)
			if w == d {
				found = true
				break
			}
			r.queue = append(r.queue, int32(w))
		}
	}
	if !found {
		return nil
	}
	rev := r.seg[:0]
	for v := d; ; v = int(r.parent[v]) {
		rev = append(rev, v)
		if v == int(r.parent[v]) {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	r.seg = rev
	return rev
}

// ValidatePath checks that p is a connected level-0 walk from s to d.
func (r *Router) ValidatePath(p []int, s, d int) error {
	if len(p) == 0 {
		return fmt.Errorf("routing: empty path")
	}
	if p[0] != s || p[len(p)-1] != d {
		return fmt.Errorf("routing: path endpoints %d..%d, want %d..%d", p[0], p[len(p)-1], s, d)
	}
	for i := 0; i+1 < len(p); i++ {
		if !r.g.HasEdge(p[i], p[i+1]) {
			return fmt.Errorf("routing: hop %d: no edge (%d,%d)", i, p[i], p[i+1])
		}
	}
	return nil
}
