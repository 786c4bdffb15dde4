package lm

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/par"
)

// Table is the complete server-assignment snapshot: for every owner
// node and hierarchy level k, the level-0 node currently serving the
// owner's level-k location entry (-1 where the hierarchy does not
// reach level k above the owner). It also records each owner's
// *logical* ancestor chain, which the incremental update and the
// handoff accountant consume: comparing logical chains distinguishes
// real cluster membership changes from head relabels.
type Table struct {
	owners  []int      // sorted level-0 node IDs (owned by the table)
	index   []int32    // owner ID -> row, -1 for IDs that own no row
	servers [][]int32  // [row][k-1] -> server node, -1 if none
	chains  [][]uint64 // [row][k-1] -> logical level-k ancestor

	// Per-row descent-path memo: for each owner row, the winner keys of
	// every hash descent, column k occupying [k(k-1)/2, k(k+1)/2) in
	// level order k, k-1, ..., 1 (the last entry is the server's node
	// ID). Derived data — never compared by table differs/equality
	// checks — kept so the incremental update can re-trace a previous
	// descent without re-hashing own-clean steps.
	paths [][]uint64

	// Flat backing for the row slices, owned by this table so that
	// double-buffered tables never share storage.
	srvBack   []int32
	chainBack []uint64
	pathBack  []uint64
}

// pathOff returns the offset of descent-path column k within a row's
// paths slice.
func pathOff(k int) int { return k * (k - 1) / 2 }

// Owners returns the sorted owner IDs covered by the table.
func (t *Table) Owners() []int { return t.owners }

// row returns owner's row, or -1.
func (t *Table) row(owner int) int {
	if uint(owner) >= uint(len(t.index)) {
		return -1
	}
	return int(t.index[owner])
}

// setOwners makes owners (copied) the table's owner list and points
// the row index at it. Only the entries of the previous owner list are
// reset, so the cost tracks the owners, not the ID space.
func (t *Table) setOwners(owners []int) {
	for _, v := range t.owners {
		t.index[v] = -1
	}
	t.owners = append(t.owners[:0], owners...)
	if n := len(owners); n > 0 && owners[n-1] >= len(t.index) {
		old := len(t.index)
		t.index = append(t.index, make([]int32, owners[n-1]+1-old)...)
		for i := old; i < len(t.index); i++ {
			t.index[i] = -1
		}
	}
	for row, v := range owners {
		t.index[v] = int32(row)
	}
}

// Server returns the level-k server of owner, or -1.
func (t *Table) Server(owner, k int) int {
	row := t.row(owner)
	if row < 0 || k < 1 || k > len(t.servers[row]) {
		return -1
	}
	return int(t.servers[row][k-1])
}

// Chain returns owner's logical ancestor chain (shared slice; do not
// mutate), or nil.
func (t *Table) Chain(owner int) []uint64 {
	row := t.row(owner)
	if row < 0 {
		return nil
	}
	return t.chains[row]
}

// Levels returns the number of levels allocated for owner's row.
func (t *Table) Levels(owner int) int {
	row := t.row(owner)
	if row < 0 {
		return 0
	}
	return len(t.servers[row])
}

// Load returns, indexed by node ID, the number of (owner, level)
// entries each node serves (0 for a node serving none). This is the
// server-load distribution whose equity the paper requires.
func (t *Table) Load() []int {
	load := make([]int, len(t.index)) // every server is an owner
	for _, row := range t.servers {
		for _, s := range row {
			if s >= 0 {
				load[s]++
			}
		}
	}
	return load
}

// EntryCount returns the total number of live (owner, level) entries.
func (t *Table) EntryCount() int {
	n := 0
	for _, row := range t.servers {
		for _, s := range row {
			if s >= 0 {
				n++
			}
		}
	}
	return n
}

// Selector computes CHLM server assignments over a hierarchy with
// cluster identities.
type Selector struct {
	Hash HashFamily
}

// NewSelector returns a selector using the given hash family (nil
// means Rendezvous{}).
func NewSelector(h HashFamily) *Selector {
	if h == nil {
		h = Rendezvous{}
	}
	return &Selector{Hash: h}
}

// ServerFor resolves the level-0 node serving owner's level-k entry in
// hierarchy h: starting from the owner's level-k cluster, hash-select
// one member cluster per level down to a level-0 node (§3.2). Hash
// keys are logical cluster IDs (node IDs at the leaf step). Returns -1
// when the hierarchy does not reach level k above owner.
func (s *Selector) ServerFor(h *cluster.Hierarchy, ids *cluster.Identities, owner, k int) int {
	anc := h.Ancestor(owner, k)
	if anc < 0 {
		return -1
	}
	cur := anc
	for level := k; level >= 1; level-- {
		members := h.MembersAt(level, cur)
		if len(members) == 0 {
			// Structurally impossible in a valid hierarchy; fail loud.
			panic(fmt.Sprintf("lm: level-%d cluster %d has no members", level, cur))
		}
		idx := s.Hash.Select(uint64(owner), level, memberKeys(h, ids, level, members))
		cur = members[idx]
	}
	return cur
}

// memberKeys returns the hash keys of the level-(level-1) members of a
// level-`level` cluster: logical IDs for clusters, node IDs at level 1.
func memberKeys(h *cluster.Hierarchy, ids *cluster.Identities, level int, members []int) []uint64 {
	return appendMemberKeys(make([]uint64, 0, len(members)), ids, level, members)
}

// appendMemberKeys appends the hash keys of members to dst, the
// allocation-free form of memberKeys. Every cluster of a tracked
// snapshot has a logical ID, so a member without one panics.
func appendMemberKeys(dst []uint64, ids *cluster.Identities, level int, members []int) []uint64 {
	for _, m := range members {
		if level == 1 {
			dst = append(dst, uint64(m))
			continue
		}
		id, ok := ids.Logical(level-1, m)
		if !ok {
			panic(fmt.Sprintf("lm: level-%d cluster %d has no logical ID", level-1, m))
		}
		dst = append(dst, id)
	}
	return dst
}

// BuildTable computes the full assignment table for h: the update
// with no previous table, so every (owner, k) pays a full hash descent.
func (s *Selector) BuildTable(h *cluster.Hierarchy, ids *cluster.Identities) *Table {
	return s.UpdateTableIntoPar(nil, nil, nil, nil, nil, nil, h, ids, nil, nil)
}

// UpdateTable computes the assignment table for next incrementally:
// rows are recomputed only for (owner, k) pairs whose logical level-k
// ancestor changed or whose ancestor's subtree had any membership
// change (the hash descent only inspects members lists inside that
// subtree, so everything else is provably unchanged). The result is
// always identical to BuildTable(nextH, nextIDs).
func (s *Selector) UpdateTable(
	prev *Table,
	prevH *cluster.Hierarchy, prevIDs *cluster.Identities,
	nextH *cluster.Hierarchy, nextIDs *cluster.Identities,
) *Table {
	return s.UpdateTableIntoPar(nil, nil, nil, prev, prevH, prevIDs, nextH, nextIDs, nil, nil)
}

// UpdateScratch holds the reusable buffers of UpdateTableIntoPar: the
// cluster index and the row fill's buffers. Not safe for concurrent
// use.
type UpdateScratch struct {
	ix     clusterIndex
	anc    []int
	rowEnd []int

	// The last update's hash work (see Work).
	work hashWork
}

// Work returns the hash work of the last update that used sc: the
// Select calls of its hash descents and the candidate keys they hashed.
func (sc *UpdateScratch) Work() (selects, hashes int) {
	return sc.work.selects, sc.work.hashes
}

// hashWork counts hash-descent work: Select calls and the candidate
// keys they hashed.
type hashWork struct {
	selects, hashes int
}

// count records one Select over keys.
func (w *hashWork) count(keys []uint64) {
	w.selects++
	w.hashes += len(keys)
}

// clusterIndex is one update's index over the next snapshot's
// clusters, dense per level by head ID like cluster.Identities: the
// level-k cluster headed by c is levels[k][c] (levels[0] is unused).
// Only the entries of the level's heads are written, and only those
// are read. Each entry spans the cluster's member hash keys, in member
// order, and its physical members in the parallel members slice, so a
// descent step reads one span and never the hierarchy.
type clusterIndex struct {
	levels  [][]clusterEnt
	ents    []clusterEnt // backing of levels
	keys    []uint64
	members []int32
}

// clusterEnt is one cluster's index entry: its span in keys and
// members, the head of the previous snapshot's cluster it continues
// (-1 if none), and its dirtiness. A cluster is own-dirty when its
// member-key set differs from that previous cluster's, or there is
// none; sub-dirty when it is own-dirty or has a sub-dirty member.
type clusterEnt struct {
	start, end int32
	prev       int32
	own, sub   bool
}

// build indexes the clusters of h and classifies each against the
// previous snapshot prevH; with a nil prevH, or identities not matched
// against prevIDs, every cluster is own- and sub-dirty, as is any
// cluster without a logical ID (no descent reaches one: a row's chain
// ends below it, and it is nobody's member).
//
// A next cluster is paired with the previous cluster the build
// recorded it continues (ids.Prev), which holds the same logical ID.
// The key-set test needs no previous keys: a member's key names its
// counterpart one level down (the node itself at level 1, the paired
// cluster above), and logical IDs are unique per level, so the sets
// are equal exactly when the previous cluster has as many members and
// holds every counterpart.
//
// Sub-dirtiness is propagated bottom-up through the next snapshot's
// parents only. Propagating through the previous snapshot's parents as
// well would mark nothing more on a next cluster: a previous member of
// an own-clean cluster is also one of its next members, because the
// key sets are equal.
func (ix *clusterIndex) build(
	prevH *cluster.Hierarchy, prevIDs *cluster.Identities,
	h *cluster.Hierarchy, ids *cluster.Identities,
) {
	L, n, size := h.L(), 0, 0
	if nodes := h.LevelNodes(0); len(nodes) > 0 {
		n = nodes[len(nodes)-1] + 1
	}
	for k := 1; k <= L; k++ {
		size += len(h.LevelNodes(k - 1))
	}
	ix.ents = slices.Grow(ix.ents[:0], L*n)[:L*n]
	ix.levels = slices.Grow(ix.levels[:0], L+1)[:L+1]
	for k := 1; k <= L; k++ {
		ix.levels[k] = ix.ents[(k-1)*n : k*n]
	}
	ix.keys = slices.Grow(ix.keys[:0], size)
	ix.members = slices.Grow(ix.members[:0], size)
	paired := prevH != nil && ids.MatchedFrom(prevIDs)
	for k := 1; k <= L; k++ {
		pairedK := paired && k <= prevH.L()
		lv, below := ix.levels[k], ix.levels[k-1]
		for _, c := range h.LevelNodes(k) {
			e := clusterEnt{start: int32(len(ix.keys)), prev: -1, own: true, sub: true}
			if _, tracked := ids.Logical(k, c); tracked {
				members := h.MembersAt(k, c)
				if len(members) == 0 {
					// Structurally impossible in a valid hierarchy; fail loud.
					panic(fmt.Sprintf("lm: level-%d cluster %d has no members", k, c))
				}
				ix.keys = appendMemberKeys(ix.keys, ids, k, members)
				for _, m := range members {
					ix.members = append(ix.members, int32(m))
				}
				if p := ids.Prev(k, c); pairedK && p >= 0 {
					e.prev = int32(p)
					e.own = !keptMembers(prevH.Levels[k-1], k, p, members, below)
				}
				e.sub = e.own
				if k > 1 {
					for _, m := range members {
						e.sub = e.sub || below[m].sub
					}
				}
			}
			e.end = int32(len(ix.keys))
			lv[c] = e
		}
	}
}

// keptMembers reports whether the previous level-k cluster p, whose
// members' election data is pl, has exactly the member keys of the
// next cluster with the given members: as many members, each next
// member's previous counterpart in p.
func keptMembers(pl *cluster.Level, k, p int, members []int, below []clusterEnt) bool {
	if len(pl.MembersOf(p)) != len(members) {
		return false
	}
	for _, m := range members {
		if k > 1 {
			m = int(below[m].prev)
		}
		if pl.MemberOf(m) != p {
			return false
		}
	}
	return true
}

// descend resolves owner's level-k server by the hash descent from its
// level-k cluster c down to a level-0 node (§3.2), writing the winner
// key of every step to col (len k, levels k..1; the last is the
// server). stored is the entry's previous column when its logical
// level-k ancestor is unchanged, or nil for a full descent. While the
// descent still follows stored, a sub-clean cluster proves the rest of
// the path, server included, unchanged, and an own-clean one keeps its
// stored winner without hashing: its key set is unchanged, so the
// winner is in its span, and both hash families pick by the key set
// alone, whatever the member order (Successor breaks distance ties
// toward the smaller key). Every other step pays
// one Select over the cluster's key span, counted into w, and a winner
// that differs from stored ends the reuse.
func (s *Selector) descend(ix *clusterIndex, owner, c, k int, stored, col []uint64, w *hashWork) int {
	for level := k; level >= 1; level-- {
		j := k - level
		e := ix.levels[level][c]
		keys := ix.keys[e.start:e.end]
		var idx int
		switch {
		case stored != nil && !e.sub:
			copy(col[j:], stored[j:])
			return int(stored[k-1])
		case stored != nil && !e.own:
			idx = slices.Index(keys, stored[j])
		default:
			w.count(keys)
			idx = s.Hash.Select(uint64(owner), level, keys)
			if stored != nil && keys[idx] != stored[j] {
				stored = nil
			}
		}
		col[j] = keys[idx]
		c = int(ix.members[int(e.start)+idx])
	}
	return c
}

// UpdateParScratch is an empty placeholder, kept only for the frozen
// bench/ replica (ROADMAP item 6), which passes one to
// UpdateTableIntoPar.
type UpdateParScratch struct{}

// UpdateTableIntoPar is UpdateTable with caller-owned storage: dst
// (nil = allocate fresh) is overwritten in place, its rows packed into
// flat backing arrays, and sc (nil = allocate fresh) supplies the
// cluster index and the row buffers. dst must not alias prev and must
// no longer be referenced by any consumer — in a double-buffered loop,
// pass the table retired two ticks ago. With a nil prev every row pays
// full descents and prevH/prevIDs are not read: that is BuildTable.
// The update pairs a next cluster with a previous one only as the
// build of nextIDs recorded (cluster.Identities.Prev), so only when
// nextIDs were matched against prevIDs (MatchedFrom) and prevH has the
// level; any other cluster is unpaired and its rows pay full descents,
// which still gives BuildTable's table. known must be nil, and psc and
// p are unused; the three parameters stay only because the bench/
// replica, which is frozen with the benchmark, passes them (ROADMAP
// item 6).
func (s *Selector) UpdateTableIntoPar(
	dst *Table, sc *UpdateScratch, _ *UpdateParScratch,
	prev *Table,
	prevH *cluster.Hierarchy, prevIDs *cluster.Identities,
	nextH *cluster.Hierarchy, nextIDs *cluster.Identities,
	known *cluster.DirtyClusters,
	_ *par.Pool,
) *Table {
	if known != nil {
		panic("lm: UpdateTableIntoPar takes no known dirty set")
	}
	if dst == nil {
		dst = &Table{}
	}
	if dst == prev {
		panic("lm: UpdateTableIntoPar dst must not alias prev")
	}
	if sc == nil {
		sc = &UpdateScratch{}
	}
	if prev == nil {
		prevH = nil
	}
	sc.ix.build(prevH, prevIDs, nextH, nextIDs)
	in := rowInputs{prev: prev, nextH: nextH, nextIDs: nextIDs}
	owners := nextH.LevelNodes(0)
	dst.setOwners(owners)
	// Size the backings for the longest chains (one entry per level
	// above the owner) up front, so that a fresh table allocates each
	// once instead of once per doubling.
	rows, L := len(owners), nextH.L()
	dst.chainBack = slices.Grow(dst.chainBack[:0], rows*L)
	dst.srvBack = slices.Grow(dst.srvBack[:0], rows*L)
	dst.pathBack = slices.Grow(dst.pathBack[:0], rows*pathOff(L+1))
	sc.rowEnd = slices.Grow(sc.rowEnd[:0], rows)
	sc.anc = slices.Grow(sc.anc[:0], L)
	sc.work = hashWork{}
	for _, v := range owners {
		s.appendRow(dst, sc, v, in)
	}
	// Fix up the row views only after the backings stopped growing.
	// Path-column offsets derive from the chain lengths: a row with n
	// levels owns pathOff(n+1) memo entries.
	dst.servers = slices.Grow(dst.servers[:0], rows)
	dst.chains = slices.Grow(dst.chains[:0], rows)
	dst.paths = slices.Grow(dst.paths[:0], rows)
	off, pOff := 0, 0
	for _, end := range sc.rowEnd {
		n := end - off
		pEnd := pOff + pathOff(n+1)
		dst.servers = append(dst.servers, dst.srvBack[off:end:end])
		dst.chains = append(dst.chains, dst.chainBack[off:end:end])
		dst.paths = append(dst.paths, dst.pathBack[pOff:pEnd:pEnd])
		off, pOff = end, pEnd
	}
	return dst
}

// rowInputs is the read-only state every owner row of an update
// reads besides the cluster index: the previous table (nil for
// BuildTable) and the next snapshot.
type rowInputs struct {
	prev    *Table
	nextH   *cluster.Hierarchy
	nextIDs *cluster.Identities
}

// appendRow appends owner v's table row to dst's backings: its logical
// ancestor chain, per-level servers and descent-path memo, and the
// row's end to sc.rowEnd. One ancestor walk yields the physical
// ancestors every descent starts from and, up to the first without a
// logical ID, the logical chain. An entry whose logical ancestor is
// unchanged descends along its previous path; any other pays a full
// descent.
func (s *Selector) appendRow(dst *Table, sc *UpdateScratch, v int, in rowInputs) {
	sc.anc = in.nextH.AppendAncestorChain(v, sc.anc[:0])
	start := len(dst.chainBack)
	for i, a := range sc.anc {
		id, ok := in.nextIDs.Logical(i+1, a)
		if !ok {
			break
		}
		dst.chainBack = append(dst.chainBack, id)
	}
	chain := dst.chainBack[start:]
	n := len(chain)
	pstart := len(dst.pathBack)
	dst.pathBack = slices.Grow(dst.pathBack, pathOff(n+1))[:pstart+pathOff(n+1)]
	paths := dst.pathBack[pstart:]
	var prevChain, prevPath []uint64
	if in.prev != nil {
		if r := in.prev.row(v); r >= 0 {
			prevChain, prevPath = in.prev.chains[r], in.prev.paths[r]
		}
	}
	for i, c := range chain {
		k := i + 1
		po := pathOff(k)
		var stored []uint64
		if i < len(prevChain) && prevChain[i] == c {
			stored = prevPath[po : po+k]
		}
		srv := s.descend(&sc.ix, v, sc.anc[i], k, stored, paths[po:po+k], &sc.work)
		dst.srvBack = append(dst.srvBack, int32(srv))
	}
	sc.rowEnd = append(sc.rowEnd, len(dst.chainBack))
}

// TableDiff reports every (owner, level) assignment change between two
// tables, ordered by (owner, level).
type TableDiff struct {
	Owner, Level         int
	OldServer, NewServer int // -1 when absent on that side
}

// DiffTables lists all assignment changes from prev to next.
func DiffTables(prev, next *Table) []TableDiff {
	return appendTableDiffs(nil, prev, next)
}

// appendTableDiffs is DiffTables with caller-owned storage: changes
// are appended to out (pass out[:0] to reuse its capacity). The two
// sorted owner lists are merge-walked, so the changes come out in
// (owner, level) order with no sort: an owner only in prev retires its
// live entries, one only in next gains its live entries, and one in
// both reports every level whose server differs.
func appendTableDiffs(out []TableDiff, prev, next *Table) []TableDiff {
	var prevOwners []int
	if prev != nil {
		prevOwners = prev.owners
	}
	i, j := 0, 0
	for i < len(prevOwners) || j < len(next.owners) {
		switch {
		case j == len(next.owners) || (i < len(prevOwners) && prevOwners[i] < next.owners[j]):
			for k, s := range prev.servers[i] {
				if s >= 0 {
					out = append(out, TableDiff{Owner: prevOwners[i], Level: k + 1, OldServer: int(s), NewServer: -1})
				}
			}
			i++
		case i == len(prevOwners) || next.owners[j] < prevOwners[i]:
			for k, s := range next.servers[j] {
				if s != -1 {
					out = append(out, TableDiff{Owner: next.owners[j], Level: k + 1, OldServer: -1, NewServer: int(s)})
				}
			}
			j++
		default:
			pr, nr := prev.servers[i], next.servers[j]
			for k := 0; k < max(len(pr), len(nr)); k++ {
				oldS, newS := -1, -1
				if k < len(pr) {
					oldS = int(pr[k])
				}
				if k < len(nr) {
					newS = int(nr[k])
				}
				if oldS != newS {
					out = append(out, TableDiff{Owner: next.owners[j], Level: k + 1, OldServer: oldS, NewServer: newS})
				}
			}
			i++
			j++
		}
	}
	return out
}
