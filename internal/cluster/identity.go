package cluster

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
// snapshot to stable logical IDs, per level, and records which cluster
// of the snapshot they were matched against each cluster continues.
type Identities struct {
	// byLevel[k-1][head] is the logical ID of the level-k cluster led
	// by head in this snapshot: one dense row per level, indexed by
	// head ID, with noLogical for IDs that head no level-k cluster.
	byLevel [][]uint64
	// prev[k-1][head] is the head of the matched snapshot's level-k
	// cluster whose logical ID the level-k cluster led by head took,
	// or -1 when it took a fresh one: dense rows like byLevel.
	prev [][]int32
	// from and fromGen name the identities the rows were matched
	// against (nil for a first snapshot); gen counts the recycles of
	// this value, so a recycled from no longer matches.
	from         *Identities
	fromGen, gen uint64
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

// Prev returns the head of the level-k cluster whose logical ID the
// level-k cluster led by head took from the snapshot these identities
// were matched against (see MatchedFrom), or -1 when it took a fresh
// one or head leads no level-k cluster. Under Passthrough that is head
// itself when it led a level-k cluster before.
func (ids *Identities) Prev(k, head int) int {
	if ids == nil || k < 1 || k > len(ids.prev) {
		return -1
	}
	row := ids.prev[k-1]
	if uint(head) >= uint(len(row)) {
		return -1
	}
	return int(row[head])
}

// MatchedFrom reports whether ids were matched against prev, so that
// Prev names prev's clusters.
func (ids *Identities) MatchedFrom(prev *Identities) bool {
	return ids != nil && prev != nil && ids.from == prev && ids.fromGen == prev.gen
}

// Levels reports the number of cluster levels covered.
func (ids *Identities) Levels() int { return len(ids.byLevel) }

// AppendChainOf appends node v's logical ancestor chain to dst and
// returns the extended slice: first the logical ID of v's level-1
// cluster, then of its level-2 cluster, and so on. Callers batch many
// chains into one backing array. Nodes outside the hierarchy append
// nothing.
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

func (t *IdentityTracker) alloc(head int) uint64 {
	if t.Passthrough {
		return uint64(head)
	}
	id := t.nextID
	t.nextID++
	return id
}
