package cluster

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/topology"
)

// Level is one stratum of the clustered hierarchy.
//
// Levels are indexed by k = 0..L. Level 0 holds every node and the
// unit-disk graph. For k >= 1, Nodes are the level-k nodes (clusterheads
// elected at level k-1, identified by their level-0 IDs), Graph is the
// level-k topology (E_k), and the election data describes how level-k
// nodes grouped into level-(k+1) clusters — present only when a level
// k+1 exists.
//
// The election data is stored densely: every slice is indexed by a
// level-0 node ID (all IDs lie below the level-0 graph's IDSpace), and
// -1 (nil for Members) marks an absent entry. Head and Member hold an
// entry for exactly the IDs in Nodes, State and Members for exactly the
// level-(k+1) nodes. On the top level the slices are empty. Read them
// through HeadOf, MemberOf, StateOf and MembersOf, which also accept
// IDs beyond the slices.
type Level struct {
	K     int
	Nodes []int           // sorted level-k node IDs
	Graph *topology.Graph // level-k topology over Nodes

	// Election results at this level (grouping level-k nodes into
	// level-(k+1) clusters).
	Head    []int32 // level-k node -> elected clusterhead
	Member  []int32 // level-k node -> level-(k+1) cluster it belongs to
	State   []int32 // level-(k+1) node -> # level-k *neighbors* electing it (ALCA state, Fig. 3)
	Members [][]int // level-(k+1) cluster -> sorted level-k members
}

// IsNode reports whether id is a level-k node at this level.
func (l *Level) IsNode(id int) bool {
	i := sort.SearchInts(l.Nodes, id)
	return i < len(l.Nodes) && l.Nodes[i] == id
}

// Elected reports whether the level carries election data (every
// level but the top one).
func (l *Level) Elected() bool { return len(l.Member) > 0 }

// HeadOf returns the clusterhead level-k node u elected, or -1.
func (l *Level) HeadOf(u int) int {
	if uint(u) >= uint(len(l.Head)) {
		return -1
	}
	return int(l.Head[u])
}

// MemberOf returns the level-(k+1) cluster level-k node u belongs to,
// or -1.
func (l *Level) MemberOf(u int) int {
	if uint(u) >= uint(len(l.Member)) {
		return -1
	}
	return int(l.Member[u])
}

// StateOf returns the ALCA state of level-(k+1) node c (the number of
// level-k neighbors electing it), or -1 when c heads no cluster here.
func (l *Level) StateOf(c int) int {
	if uint(c) >= uint(len(l.State)) {
		return -1
	}
	return int(l.State[c])
}

// MembersOf returns the sorted level-k members of cluster c (shared
// slice; do not mutate), or nil.
func (l *Level) MembersOf(c int) []int {
	if uint(c) >= uint(len(l.Members)) {
		return nil
	}
	return l.Members[c]
}

// sizeElection extends the election slices to cover IDs below n. New
// entries read as absent; entries already there are kept. Pooled
// levels rely on every entry within capacity having been reset.
func (l *Level) sizeElection(n int) {
	l.Head = growFilled(l.Head, n, -1)
	l.Member = growFilled(l.Member, n, -1)
	l.State = growFilled(l.State, n, -1)
	l.Members = growFilled(l.Members, n, nil)
}

// growFilled extends s to length n, filling new entries with absent;
// the capacity beyond len(s) must already hold absent.
func growFilled[T any](s []T, n int, absent T) []T {
	if len(s) >= n {
		return s
	}
	if cap(s) >= n {
		return s[:n]
	}
	old := len(s)
	s = append(s, make([]T, n-old)...)
	for i := old; i < n; i++ {
		s[i] = absent
	}
	return s
}

// resetElection removes the election data of a level whose entries
// are named by its Nodes (Head, Member) and by clusters (State,
// Members), returning member slices to arena a (nil-safe). The slices
// keep their capacity, all of it reset.
func (l *Level) resetElection(clusters []int, a *Arena) {
	if !l.Elected() {
		return
	}
	for _, u := range l.Nodes {
		l.Head[u], l.Member[u] = -1, -1
	}
	for _, c := range clusters {
		l.State[c] = -1
		a.putInts(l.Members[c])
		l.Members[c] = nil
	}
	l.Head, l.Member, l.State, l.Members = l.Head[:0], l.Member[:0], l.State[:0], l.Members[:0]
}

// Hierarchy is a full clustered-hierarchy snapshot. Levels[0] is the
// physical network; Levels[len-1] is the top level (no further
// clustering performed there).
type Hierarchy struct {
	Levels []*Level
	// Reach is the member-to-head hop bound of the clustering that
	// produced this hierarchy (1 for LCA).
	Reach int
	// ForcedTop records that the final election level groups all
	// remaining clusters into one forced top cluster (see
	// Config.ForceTopAt); its members need not be adjacent to the
	// head.
	ForcedTop bool
}

// L returns the number of clustering levels: the highest k for which
// level-k clusters exist. A hierarchy with Levels = [level0, level1]
// has L = 1.
func (h *Hierarchy) L() int { return len(h.Levels) - 1 }

// idSpace returns an exclusive bound on the hierarchy's node IDs: the
// level-0 graph's ID space, widened to cover every level-0 node.
func (h *Hierarchy) idSpace() int {
	n := 0
	if l0 := h.Level(0); l0 != nil {
		if l0.Graph != nil {
			n = l0.Graph.IDSpace()
		}
		if len(l0.Nodes) > 0 {
			n = max(n, l0.Nodes[len(l0.Nodes)-1]+1)
		}
	}
	return n
}

// Level returns the level-k stratum, or nil when k is out of range.
func (h *Hierarchy) Level(k int) *Level {
	if k < 0 || k >= len(h.Levels) {
		return nil
	}
	return h.Levels[k]
}

// Config controls hierarchy construction.
type Config struct {
	// MaxLevels caps recursion depth (safety net; the recursion
	// naturally terminates when a level no longer compresses).
	MaxLevels int
	// Elector is the clusterhead election rule; nil means MemorylessLCA.
	Elector Elector
	// Reach is the maximum hop distance between a member and its head
	// (1 for LCA, d for max-min d-hop clustering, -1 to disable the
	// check for electors that tolerate transient detachment, e.g.
	// DebouncedLCA). It only affects Validate; default 1.
	Reach int
	// ForceTopAt, when positive, stops the election recursion once a
	// level has at most this many nodes and closes the hierarchy with
	// a single forced top cluster containing all of them (the paper's
	// "desired number of cluster levels", §2.1). Election-driven
	// hierarchies have arity-2..3 top levels whose member lists churn
	// and whose handoffs cost Θ(√N) per node; a forced top with a
	// healthy arity removes that boundary pathology while keeping LM
	// queries resolvable network-wide.
	ForceTopAt int
}

func (c Config) withDefaults() Config {
	if c.MaxLevels <= 0 {
		c.MaxLevels = 24
	}
	if c.Elector == nil {
		c.Elector = MemorylessLCA{}
	}
	if c.Reach == 0 {
		c.Reach = 1
	}
	return c
}

// Build constructs the clustered hierarchy over the level-0 graph g0
// covering the given (sorted or unsorted) node set. prev, when
// non-nil, supplies the previous snapshot for hysteresis electors;
// levels are matched by index.
func Build(g0 *topology.Graph, nodes []int, cfg Config, prev *Hierarchy) *Hierarchy {
	cfg = cfg.withDefaults()
	base := append([]int(nil), nodes...)
	sort.Ints(base)

	h := &Hierarchy{Reach: cfg.Reach}
	idSpace := g0.IDSpace()
	curNodes := base
	curGraph := g0
	for k := 0; ; k++ {
		lvl := &Level{K: k, Nodes: curNodes, Graph: curGraph}
		h.Levels = append(h.Levels, lvl)

		if len(curNodes) <= 1 || k >= cfg.MaxLevels {
			break
		}
		if cfg.ForceTopAt > 0 && k >= 1 && len(curNodes) <= cfg.ForceTopAt {
			forceTop(h, lvl, idSpace, nil)
			break
		}

		prevHead := func(int) int { return -1 }
		if prev != nil {
			if pl := prev.Level(k); pl != nil && pl.Elected() {
				prevHead = pl.HeadOf
			}
		}

		heads := cfg.Elector.Elect(nil, curNodes, curGraph, prevHead)
		nextNodes := elect(lvl, heads, idSpace, nil)
		if len(nextNodes) == len(curNodes) {
			// No compression. This happens exactly when the level has
			// no edges (every node self-elects), so clustering has
			// converged; drop the trivial election data to keep the
			// invariant that only non-top levels carry it.
			lvl.resetElection(nextNodes, nil)
			break
		}
		curGraph = liftGraph(curGraph, lvl, nextNodes, idSpace, nil)
		curNodes = nextNodes
	}
	return h
}

// forceTop groups every node of lvl into a single cluster headed by
// the maximum ID and appends the resulting one-node top level. Arena a
// (nil-safe) supplies recycled storage.
func forceTop(h *Hierarchy, lvl *Level, idSpace int, a *Arena) {
	root := lvl.Nodes[len(lvl.Nodes)-1] // Nodes is sorted ascending
	heads := a.getHeadBuf()
	for range lvl.Nodes {
		heads = append(heads, root)
	}
	top := a.getLevel()
	top.K = lvl.K + 1
	top.Nodes = elect(lvl, heads, idSpace, a)
	a.putHeadBuf(heads)
	top.Graph = a.getGraph(idSpace)
	h.Levels = append(h.Levels, top)
	h.ForcedTop = true
}

// elect fills the election-derived fields of lvl from the positional
// heads slice (heads[i] is the head elected by lvl.Nodes[i]) and
// returns the sorted level-(k+1) node list. lvl must carry no election
// entries (fresh, or reset by Arena.Recycle). Arena a (nil-safe)
// supplies recycled member slices and the returned list.
func elect(lvl *Level, heads []int, idSpace int, a *Arena) []int {
	lvl.sizeElection(idSpace)
	clusters := a.getInts()
	// ALCA state: electors among *neighbors* (self-election excluded),
	// matching the paper's Fig. 3 state variable. Heads with only a
	// self-election have state 0.
	for i, u := range lvl.Nodes {
		hd := heads[i]
		lvl.Head[u] = int32(hd)
		if lvl.State[hd] < 0 {
			lvl.State[hd] = 0
			clusters = append(clusters, hd)
		}
		if hd != u {
			lvl.State[hd]++
		}
	}
	slices.Sort(clusters)
	for _, c := range clusters {
		lvl.Members[c] = a.getInts()
	}
	// Nodes ascend, so every member list is built sorted.
	for _, u := range lvl.Nodes {
		m := int(lvl.Head[u])
		if lvl.State[u] >= 0 {
			// A clusterhead belongs to its own cluster even if it
			// elected a higher-ID neighbor.
			m = u
		}
		lvl.Member[u] = int32(m)
		lvl.Members[m] = append(lvl.Members[m], u)
	}
	return clusters
}

// liftGraph builds the level-(k+1) topology: clusters X and Y are
// adjacent iff some level-k edge joins a member of X to a member of Y.
// The lifted edge keys come out ascending and deduplicated by
// construction: clusters (lvl's sorted level-(k+1) nodes, as elect
// returns them) are walked in ascending order, and cluster c
// contributes the keys (c, d) for every neighbouring cluster d > c of
// its members, inserted in order into c's short run with duplicates
// dropped. So the graph's adjacency lists come out in key order
// whatever order g's adjacency lists hold; routing's BFS, and so the
// experiments, depend on that order. Arena a (nil-safe) supplies a
// recycled graph and the key buffer.
func liftGraph(g *topology.Graph, lvl *Level, clusters []int, idSpace int, a *Arena) *topology.Graph {
	keys := a.getEdgeBuf()
	for _, c := range clusters {
		start := len(keys)
		for _, x := range lvl.Members[c] {
			for _, y := range g.Neighbors(x) {
				if d := int(lvl.Member[y]); d > c {
					keys = insertKey(keys, start, topology.MakeEdgeKey(c, d))
				}
			}
		}
	}
	up := topology.BuildFromSortedEdgesInto(a.getGraph(idSpace), idSpace, keys)
	a.putEdgeBuf(keys)
	return up
}

// insertKey inserts k into keys' ascending, duplicate-free tail run
// keys[start:], leaving the run unchanged when k is already in it.
func insertKey(keys []topology.EdgeKey, start int, k topology.EdgeKey) []topology.EdgeKey {
	i := len(keys)
	for i > start && keys[i-1] > k {
		i--
	}
	if i > start && keys[i-1] == k {
		return keys
	}
	keys = append(keys, 0)
	copy(keys[i+1:], keys[i:])
	keys[i] = k
	return keys
}

// AncestorChain returns the cluster IDs containing level-0 node v at
// levels 1..L: chain[0] is v's level-1 cluster, chain[len-1] its
// top-level cluster. Nodes absent from the hierarchy return nil.
func (h *Hierarchy) AncestorChain(v int) []int {
	if len(h.Levels) > 1 && h.Levels[0].MemberOf(v) < 0 {
		return nil
	}
	return h.AppendAncestorChain(v, nil)
}

// AppendAncestorChain appends v's ancestor chain (see AncestorChain)
// to dst and returns the extended slice — the allocation-free form for
// hot paths. Nodes absent from the hierarchy append nothing.
func (h *Hierarchy) AppendAncestorChain(v int, dst []int) []int {
	cur := v
	for k := 0; k+1 < len(h.Levels); k++ {
		m := h.Levels[k].MemberOf(cur)
		if m < 0 {
			break
		}
		dst = append(dst, m)
		cur = m
	}
	return dst
}

// Ancestor returns the ID of v's level-k cluster (k >= 1), or -1 when
// the hierarchy does not reach level k above v.
func (h *Hierarchy) Ancestor(v, k int) int {
	chain := h.AncestorChain(v)
	if k < 1 || k > len(chain) {
		return -1
	}
	return chain[k-1]
}

// Descendants returns all level-0 nodes contained in the level-k
// cluster with the given head ID, sorted ascending. For k == 0 it
// returns {cluster}.
func (h *Hierarchy) Descendants(k, cluster int) []int {
	return h.DescendantsInto(nil, k, cluster)
}

// DescendantsInto appends the sorted level-0 descendants of the
// level-k cluster to dst and returns the extended slice; only the
// appended run is sorted. With a dst of sufficient capacity it does
// not allocate.
func (h *Hierarchy) DescendantsInto(dst []int, k, cluster int) []int {
	if k > 0 && k >= len(h.Levels) {
		return dst
	}
	start := len(dst)
	dst = h.appendDescendants(dst, k, cluster)
	slices.Sort(dst[start:])
	return dst
}

// appendDescendants appends the level-0 descendants of the level-k
// cluster to dst depth first, in member order.
func (h *Hierarchy) appendDescendants(dst []int, k, c int) []int {
	if k <= 0 {
		return append(dst, c)
	}
	for _, m := range h.Levels[k-1].MembersOf(c) {
		dst = h.appendDescendants(dst, k-1, m)
	}
	return dst
}

// MembersAt returns the sorted level-(k-1) members of the level-k
// cluster (k >= 1).
func (h *Hierarchy) MembersAt(k, cluster int) []int {
	if k < 1 || k > len(h.Levels) {
		return nil
	}
	return h.Levels[k-1].MembersOf(cluster)
}

// LevelNodes returns the sorted level-k node IDs.
func (h *Hierarchy) LevelNodes(k int) []int {
	if k < 0 || k >= len(h.Levels) {
		return nil
	}
	return h.Levels[k].Nodes
}

// Alpha returns α_k = |V_{k-1}| / |V_k| for k in 1..L.
func (h *Hierarchy) Alpha(k int) float64 {
	if k < 1 || k >= len(h.Levels) {
		return 0
	}
	return float64(len(h.Levels[k-1].Nodes)) / float64(len(h.Levels[k].Nodes))
}

// Aggregation returns c_k = |V| / |V_k|.
func (h *Hierarchy) Aggregation(k int) float64 {
	if k < 0 || k >= len(h.Levels) {
		return 0
	}
	return float64(len(h.Levels[0].Nodes)) / float64(len(h.Levels[k].Nodes))
}

// Validate checks structural invariants and returns an error naming
// the first violation. Used by integration tests and the simulator's
// paranoid mode.
func (h *Hierarchy) Validate() error {
	if len(h.Levels) == 0 {
		return fmt.Errorf("cluster: empty hierarchy")
	}
	for k := 0; k+1 < len(h.Levels); k++ {
		lvl := h.Levels[k]
		up := h.Levels[k+1]
		if !lvl.Elected() {
			return fmt.Errorf("cluster: level %d missing election data", k)
		}
		// Every node has a member cluster that is a level-(k+1) node.
		for _, u := range lvl.Nodes {
			m := lvl.MemberOf(u)
			if m < 0 {
				return fmt.Errorf("cluster: level %d node %d has no cluster", k, u)
			}
			if !up.IsNode(m) {
				return fmt.Errorf("cluster: level %d node %d assigned to non-node cluster %d", k, u, m)
			}
			// Reach property: a non-head member is within Reach hops
			// of its head in the level topology (skipped for Reach < 0,
			// used by grace-period electors, and for the forced top
			// level, whose members need not be adjacent).
			forced := h.ForcedTop && k == len(h.Levels)-2
			if m != u && h.Reach == 1 && !forced && !lvl.Graph.HasEdge(u, m) {
				return fmt.Errorf("cluster: level %d node %d not adjacent to its head %d", k, u, m)
			}
			if m != u && h.Reach > 1 && !forced {
				scratch := NewReachChecker(lvl.Graph)
				if !scratch.Within(u, m, h.Reach) {
					return fmt.Errorf("cluster: level %d node %d beyond reach %d of head %d", k, u, h.Reach, m)
				}
			}
		}
		// Members lists partition the level's nodes. Walk the dense
		// index in ascending ID order so the first violation reported
		// is deterministic.
		count := 0
		for c, members := range lvl.Members {
			if len(members) == 0 && lvl.StateOf(c) < 0 {
				continue
			}
			if !up.IsNode(c) {
				return fmt.Errorf("cluster: members list for non-node %d", c)
			}
			for _, u := range members {
				if lvl.MemberOf(u) != c {
					return fmt.Errorf("cluster: member list mismatch for %d in %d", u, c)
				}
			}
			count += len(members)
		}
		if count != len(lvl.Nodes) {
			return fmt.Errorf("cluster: level %d members cover %d of %d nodes", k, count, len(lvl.Nodes))
		}
		// A head leads its own cluster.
		for _, c := range up.Nodes {
			if lvl.MemberOf(c) != c {
				return fmt.Errorf("cluster: head %d at level %d not in own cluster", c, k)
			}
		}
	}
	return nil
}

// ReachChecker verifies bounded-hop membership for multi-hop
// clusterings (Reach > 1) during validation.
type ReachChecker struct {
	g       *topology.Graph
	scratch *topology.BFSScratch
}

// NewReachChecker builds a checker over g.
func NewReachChecker(g *topology.Graph) *ReachChecker {
	return &ReachChecker{g: g, scratch: topology.NewBFSScratch(g.IDSpace())}
}

// Within reports whether v is within maxHops of head in the graph.
func (r *ReachChecker) Within(v, head, maxHops int) bool {
	h := r.scratch.HopCount(r.g, v, head, nil)
	return h >= 0 && h <= maxHops
}
