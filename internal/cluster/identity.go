package cluster

import "repro/internal/topology"

// Cluster identity continuity.
//
// ALCA names a cluster after its current clusterhead, so a head change
// renames the cluster even when its membership barely moves. The
// paper's §4/§5 analysis treats clusters as persistent entities whose
// membership evolves slowly (events need Θ(h_k) of physical motion);
// if the LM hash and the handoff accounting keyed on raw head IDs,
// every head relabel would masquerade as the destruction of one
// cluster and the birth of another, re-homing the entries of the whole
// subtree — an identity artifact, not data movement the model
// predicts. (Ablation A4 measures exactly that blow-up.)
//
// IdentityTracker therefore assigns every cluster a stable logical ID
// and carries it across snapshots by maximal level-0 descendant
// overlap: the successor cluster inheriting the plurality of a
// cluster's nodes keeps its logical ID; genuinely new clusters get
// fresh IDs. Merges and splits transfer the ID to the largest-overlap
// successor, so the minority side re-registers — which is precisely a
// reorganization handoff.

// Identities maps the physical clusters (head IDs) of one hierarchy
// snapshot to stable logical IDs, per level.
type Identities struct {
	// byLevel[k-1][head] is the logical ID of the level-k cluster led
	// by head in this snapshot: one dense row per level, indexed by
	// head ID, with noLogical for IDs that head no level-k cluster.
	byLevel [][]uint64
}

// noLogical marks an identity-row entry with no cluster. Logical IDs
// are counter values (or head IDs under Passthrough), never this.
const noLogical = ^uint64(0)

// Logical returns the logical ID of the level-k cluster led by head,
// and whether it exists.
func (ids *Identities) Logical(k, head int) (uint64, bool) {
	if ids == nil || k < 1 || k > len(ids.byLevel) {
		return 0, false
	}
	row := ids.byLevel[k-1]
	if uint(head) >= uint(len(row)) {
		return 0, false
	}
	id := row[head]
	return id, id != noLogical
}

// Levels reports the number of cluster levels covered.
func (ids *Identities) Levels() int { return len(ids.byLevel) }

// ChainOf returns node v's logical ancestor chain: chain[0] is the
// logical ID of v's level-1 cluster, and so on. Nodes outside the
// hierarchy return nil.
func (ids *Identities) ChainOf(h *Hierarchy, v int) []uint64 {
	phys := h.AncestorChain(v)
	if phys == nil {
		return nil
	}
	out := make([]uint64, 0, len(phys))
	for i, head := range phys {
		id, ok := ids.Logical(i+1, head)
		if !ok {
			break
		}
		out = append(out, id)
	}
	return out
}

// AppendChainOf appends v's logical ancestor chain to dst and returns
// the extended slice — ChainOf without the per-call allocations, for
// hot paths that batch many chains into one backing array. Nodes
// outside the hierarchy append nothing.
func (ids *Identities) AppendChainOf(h *Hierarchy, v int, dst []uint64) []uint64 {
	cur := v
	for k := 0; k+1 < len(h.Levels); k++ {
		m := h.Levels[k].MemberOf(cur)
		if m < 0 {
			break
		}
		id, ok := ids.Logical(k+1, m)
		if !ok {
			break
		}
		dst = append(dst, id)
		cur = m
	}
	return dst
}

// LogicalEdge is an undirected level-k cluster adjacency in logical ID
// space (A < B).
type LogicalEdge struct {
	A, B uint64
}

// LogicalEdges returns the level-k cluster adjacencies of h under ids
// as a set. Used to measure g'_k free of relabeling artifacts.
func LogicalEdges(h *Hierarchy, ids *Identities, k int) map[LogicalEdge]struct{} {
	return LogicalEdgesInto(nil, h, ids, k)
}

// LogicalEdgesInto is LogicalEdges writing into dst (cleared first; nil
// allocates), so steady-state callers can reuse the map across ticks.
func LogicalEdgesInto(dst map[LogicalEdge]struct{}, h *Hierarchy, ids *Identities, k int) map[LogicalEdge]struct{} {
	out := dst
	if out == nil {
		out = map[LogicalEdge]struct{}{}
	} else {
		clear(out)
	}
	lvl := h.Level(k)
	if lvl == nil || k < 1 {
		return out
	}
	// Set-to-set transform; the result is order-free.
	lvl.Graph.ForEachEdge(func(e topology.EdgeKey) {
		pa, pb := e.Nodes()
		a, okA := ids.Logical(k, pa)
		b, okB := ids.Logical(k, pb)
		if !okA || !okB {
			return
		}
		if a > b {
			a, b = b, a
		}
		out[LogicalEdge{A: a, B: b}] = struct{}{}
	})
	return out
}

// IdentityTracker allocates logical IDs and carries them between
// snapshots.
type IdentityTracker struct {
	nextID uint64
	// Passthrough disables continuity: logical ID = head ID each
	// snapshot (the naive naming; ablation A4).
	Passthrough bool
}

// NewIdentityTracker returns a tracker with IDs starting at 1.
func NewIdentityTracker() *IdentityTracker { return &IdentityTracker{nextID: 1} }

// Init assigns fresh logical IDs to every cluster of the first
// snapshot (deterministically, by level then head ID).
func (t *IdentityTracker) Init(h *Hierarchy) *Identities {
	ids := &Identities{}
	for k := 1; k <= h.L(); k++ {
		heads := h.LevelNodes(k)
		row := growFilled(nil, heads[len(heads)-1]+1, noLogical)
		for _, head := range heads {
			row[head] = t.alloc(head)
		}
		ids.byLevel = append(ids.byLevel, row)
	}
	return ids
}

func (t *IdentityTracker) alloc(head int) uint64 {
	if t.Passthrough {
		return uint64(head)
	}
	id := t.nextID
	t.nextID++
	return id
}

// Track assigns logical IDs to the clusters of next by matching them
// against prev on level-0 descendant overlap (greedy, largest overlap
// first; ties break toward smaller IDs for determinism). Prefer
// BuildWithIdentities in simulation loops — it additionally feeds the
// elector relabel-proof hysteresis; Track matches an already-built
// hierarchy.
func (t *IdentityTracker) Track(prevH *Hierarchy, prevIDs *Identities, nextH *Hierarchy) *Identities {
	if t.Passthrough {
		return t.Init(nextH)
	}
	a := NewArena()
	base := nextH.LevelNodes(0)
	a.beginBuild(nextH.idSpace())
	a.fillPrevLog(base, prevH, prevIDs)
	for _, v := range base {
		a.anc[v] = int32(v)
	}
	ids := &Identities{}
	for k := 1; k <= nextH.L(); k++ {
		a.advanceAnc(base, nextH.Levels[k-1])
		ids.byLevel = append(ids.byLevel, matchLevel(a, t, k, nextH.LevelNodes(k), base))
	}
	return ids
}
