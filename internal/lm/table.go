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

// Load returns, for every node that serves at least one entry, the
// number of (owner, level) entries it serves. This is the server-load
// distribution whose equity the paper requires.
func (t *Table) Load() map[int]int {
	load := map[int]int{}
	for _, row := range t.servers {
		for _, s := range row {
			if s >= 0 {
				load[int(s)]++
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

// LiveAt returns the set of logical cluster IDs appearing at level k
// in any owner's chain (every live cluster has at least one level-0
// descendant, so this enumerates the live clusters).
func (t *Table) LiveAt(k int) map[uint64]bool {
	return t.LiveAtInto(k, nil)
}

// LiveAtInto is LiveAt filling dst (cleared first; nil allocates) so
// per-tick consumers can reuse one map.
func (t *Table) LiveAtInto(k int, dst map[uint64]bool) map[uint64]bool {
	if dst == nil {
		dst = map[uint64]bool{}
	} else {
		clear(dst)
	}
	if k < 1 {
		return dst
	}
	for _, chain := range t.chains {
		if k <= len(chain) {
			dst[chain[k-1]] = true
		}
	}
	return dst
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

// appendMemberKeys appends the hash keys of members to dst — the
// allocation-free form used by the incremental update path.
func appendMemberKeys(dst []uint64, ids *cluster.Identities, level int, members []int) []uint64 {
	for _, m := range members {
		if level == 1 {
			dst = append(dst, uint64(m))
			continue
		}
		if id, ok := ids.Logical(level-1, m); ok {
			dst = append(dst, id)
		} else {
			// Identity missing (should not happen for a tracked
			// snapshot); degrade to the physical ID.
			dst = append(dst, uint64(m))
		}
	}
	return dst
}

// serverForBuf is ServerFor with a caller-owned key buffer and no
// intermediate allocations; it returns the server and the (possibly
// grown) buffer, and counts its Selects into w.
func (s *Selector) serverForBuf(
	h *cluster.Hierarchy, ids *cluster.Identities, owner, k int, buf, path []uint64, w *hashWork,
) (int, []uint64) {
	cur := owner
	for j := 0; j < k; j++ {
		cur = h.Levels[j].MemberOf(cur)
		if cur < 0 {
			return -1, buf
		}
	}
	return s.descendFrom(h, ids, owner, cur, k, buf, path, w)
}

// descendFrom runs the hash descent from the level-`level` cluster cur
// down to a level-0 node, recording the winner key of every step into
// path (nil = don't record).
func (s *Selector) descendFrom(
	h *cluster.Hierarchy, ids *cluster.Identities, owner, cur, level int, buf, path []uint64, w *hashWork,
) (int, []uint64) {
	j := 0
	for ; level >= 1; level-- {
		members := h.MembersAt(level, cur)
		if len(members) == 0 {
			// Structurally impossible in a valid hierarchy; fail loud.
			panic(fmt.Sprintf("lm: level-%d cluster %d has no members", level, cur))
		}
		buf = appendMemberKeys(buf[:0], ids, level, members)
		w.count(buf)
		idx := s.Hash.Select(uint64(owner), level, buf)
		if path != nil {
			path[j] = buf[idx]
		}
		j++
		cur = members[idx]
	}
	return cur, buf
}

// serverForBufIncr resolves owner's level-k server like serverForBuf,
// but re-traces the previous tick's hash descent (stored, the owner's
// previous path column) instead of paying for a full one. The caller
// guarantees the owner's logical level-k ancestor anc is unchanged
// (same chain entry) yet subtree-dirty. At each step, a cluster whose
// member-key set is unchanged ("own-clean") selects the same winner
// key as last tick — both hash families pick by key, not position —
// so the stored winner stands without hashing; an own-dirty cluster
// pays one Select over its cached key span. While the re-trace agrees
// with the stored path, the first sub-clean cluster proves the
// remaining descent identical and prevSrv stands; after the first
// divergent winner the stored path no longer applies and every
// remaining step pays its Select. The new path is written to pathDst
// (len k). rev/revKeys are the buildRev index; a key missing from it
// (an untracked identity) aborts the re-trace into a full recompute.
// Selects are counted into w.
func (s *Selector) serverForBufIncr(
	h *cluster.Hierarchy, ids *cluster.Identities, owner, k, prevSrv int,
	anc uint64, stored, pathDst []uint64,
	rev []map[uint64]revEntry, revKeys []uint64, buf []uint64, w *hashWork,
) (int, []uint64) {
	q := anc
	tracking := true
	for level := k; level >= 1; level-- {
		j := k - level
		if level >= len(rev) {
			return s.serverForBuf(h, ids, owner, k, buf, pathDst, w)
		}
		e, ok := rev[level][q]
		if !ok {
			return s.serverForBuf(h, ids, owner, k, buf, pathDst, w)
		}
		if tracking {
			if !e.sub {
				// Same path so far and nothing at or below q changed:
				// the previous descent stands in full.
				copy(pathDst[j:], stored[j:])
				return prevSrv, buf
			}
			if !e.own {
				// Same member keys, same hash: last tick's winner.
				wk := stored[j]
				pathDst[j] = wk
				q = wk
				continue
			}
		}
		keys := revKeys[e.start:e.end]
		w.count(keys)
		idx := s.Hash.Select(uint64(owner), level, keys)
		wk := keys[idx]
		pathDst[j] = wk
		if tracking && wk != stored[j] {
			tracking = false
		}
		q = wk
	}
	return int(q), buf
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
// dirty-subtree sets, member-key comparison maps and their flat
// backings, and the hash-descent key buffer. Not safe for concurrent
// use.
type UpdateScratch struct {
	dirty          dirtySet
	own            dirtySet
	pm, nm         map[uint64][]uint64
	pmBack, nmBack []uint64
	spans          []keySpan
	idsBuf         []uint64
	keyBuf         []uint64
	rowEnd         []int

	// Logical ID -> head of one level of the previous and next
	// snapshot, refilled for each level dirtySubtrees propagates from.
	prevHead, nextHead map[uint64]int

	// The last update's hash work (see Work).
	work hashWork

	// Per-tick reverse identity index (buildRev): for each level, live
	// logical ID -> cached member-key span into revKeys plus the
	// cluster's own/sub dirtiness, so each descent re-trace step costs
	// one map lookup and own-dirty Selects hash over prebuilt keys.
	rev     []map[uint64]revEntry
	revKeys []uint64
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

type keySpan struct {
	id         uint64
	start, end int
}

// revEntry is one buildRev index entry: the cluster's member-key span
// within UpdateScratch.revKeys and its dirtiness classification (own =
// member-key set changed; sub = any change in the subtree).
type revEntry struct {
	start, end int32
	own, sub   bool
}

// UpdateTableIntoPar is UpdateTable with caller-owned storage, its
// owner rows fanned out over pool p: dst (nil = allocate fresh) is
// overwritten in place, its rows packed into flat backing arrays; sc
// (nil = allocate fresh) supplies the interior scratch and psc (nil =
// allocate fresh) the per-shard buffers. dst must not alias prev and
// must no longer be referenced by any consumer — in a double-buffered
// loop, pass the table retired two ticks ago. A nil or single-worker
// pool fills dst's backings directly; otherwise each shard fills its
// own buffers and the shards are concatenated in order, so the result
// is byte-identical either way. With a nil prev every row pays full
// descents and prevH/prevIDs are not read: that is BuildTable. known
// must be nil; the parameter is kept for the bench/ replica (ROADMAP
// item 6).
func (s *Selector) UpdateTableIntoPar(
	dst *Table, sc *UpdateScratch, psc *UpdateParScratch,
	prev *Table,
	prevH *cluster.Hierarchy, prevIDs *cluster.Identities,
	nextH *cluster.Hierarchy, nextIDs *cluster.Identities,
	known *cluster.DirtyClusters,
	p *par.Pool,
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
	in := rowInputs{prev: prev, nextH: nextH, nextIDs: nextIDs}
	if prev != nil {
		// The dirty-subtree analysis is per cluster, not per row, and
		// feeds every row read-only, so it stays serial. Only rows with
		// a previous row read it.
		in.dirty = sc.dirtySubtrees(prevH, prevIDs, nextH, nextIDs)
		in.rev = sc.buildRev(nextH, nextIDs, in.dirty, sc.own)
		in.revKeys = sc.revKeys
	}
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
	if p.Workers() == 1 {
		b := rowBuf{
			chain: dst.chainBack[:0], srv: dst.srvBack[:0], path: dst.pathBack[:0],
			rowEnd: sc.rowEnd[:0], keyBuf: sc.keyBuf,
		}
		s.fillRows(&b, owners, in)
		dst.chainBack, dst.srvBack, dst.pathBack = b.chain, b.srv, b.path
		sc.rowEnd, sc.keyBuf, sc.work = b.rowEnd, b.keyBuf, b.work
	} else {
		if psc == nil {
			psc = &UpdateParScratch{}
		}
		s.fillRowsPar(dst, sc, psc, owners, in, p)
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
// reads: the dirty sets and their reverse index (nil without a previous
// table), the previous table, and the next snapshot.
type rowInputs struct {
	dirty   dirtySet
	rev     []map[uint64]revEntry
	revKeys []uint64
	prev    *Table
	nextH   *cluster.Hierarchy
	nextIDs *cluster.Identities
}

// rowBuf receives packed table rows: the flat chain, server and path
// backings, each row's end offset within chain, the hash-descent key
// buffer, and the hash work done.
type rowBuf struct {
	chain  []uint64
	srv    []int32
	path   []uint64
	rowEnd []int
	keyBuf []uint64
	work   hashWork
}

// fillRows appends the rows of owners to b. It only reads in, so
// disjoint owner ranges may run concurrently, each into its own b.
func (s *Selector) fillRows(b *rowBuf, owners []int, in rowInputs) {
	for _, v := range owners {
		s.appendRow(b, v, in)
	}
}

// buildRev fills sc.rev with per-level reverse identity indexes over
// the next snapshot: logical cluster ID -> prebuilt member-key span
// (into sc.revKeys) tagged with the cluster's own/sub dirtiness. The
// descent re-trace then follows stored winner keys with one map lookup
// per step and hashes over cached keys, never touching physical IDs.
// O(total clusters + total members) per tick.
func (sc *UpdateScratch) buildRev(
	h *cluster.Hierarchy, ids *cluster.Identities, dirty, own dirtySet,
) []map[uint64]revEntry {
	L := h.L()
	for len(sc.rev) <= L {
		sc.rev = append(sc.rev, map[uint64]revEntry{})
	}
	rev := sc.rev[:L+1]
	sc.revKeys = sc.revKeys[:0]
	for k := 1; k <= L; k++ {
		m := rev[k]
		clear(m)
		for _, c := range h.LevelNodes(k) {
			q, ok := ids.Logical(k, c)
			if !ok {
				continue // untracked identity: re-traces reaching it fall back
			}
			start := len(sc.revKeys)
			sc.revKeys = appendMemberKeys(sc.revKeys, ids, k, h.MembersAt(k, c))
			if len(sc.revKeys) == start {
				// Structurally impossible in a valid hierarchy; fail loud.
				panic(fmt.Sprintf("lm: level-%d cluster %d has no members", k, c))
			}
			m[q] = revEntry{
				start: int32(start), end: int32(len(sc.revKeys)),
				own: own.is(k, q), sub: dirty.is(k, q),
			}
		}
	}
	return rev
}

// appendRow appends owner v's table row to b: its logical ancestor
// chain, per-level servers, descent-path memo and row end. It reuses
// prev's assignment wherever the logical ancestor is unchanged and its
// subtree is clean, re-traces the previous descent (serverForBufIncr)
// when the ancestor is unchanged but its subtree was touched, and runs
// a full descent otherwise, counting its Selects into b.work. It only
// reads in, so disjoint owner ranges may run concurrently as long as
// each owns its b.
func (s *Selector) appendRow(b *rowBuf, v int, in rowInputs) {
	start := len(b.chain)
	b.chain = in.nextIDs.AppendChainOf(in.nextH, v, b.chain)
	chain := b.chain[start:]
	n := len(chain)
	pstart := len(b.path)
	b.path = slices.Grow(b.path, pathOff(n+1))[:pstart+pathOff(n+1)]
	paths := b.path[pstart:]
	var prevChain, prevPath []uint64
	var prevSrv []int32
	if in.prev != nil {
		if r := in.prev.row(v); r >= 0 {
			prevChain, prevSrv, prevPath = in.prev.chains[r], in.prev.servers[r], in.prev.paths[r]
		}
	}
	for i, c := range chain {
		k := i + 1
		po := pathOff(k)
		col := paths[po : po+k]
		var srv int
		switch {
		case i >= len(prevChain) || prevChain[i] != c:
			srv, b.keyBuf = s.serverForBuf(in.nextH, in.nextIDs, v, k, b.keyBuf, col, &b.work)
		case !in.dirty.is(k, c):
			srv = int(prevSrv[i])
			copy(col, prevPath[po:po+k])
		default:
			srv, b.keyBuf = s.serverForBufIncr(in.nextH, in.nextIDs, v, k, int(prevSrv[i]), c,
				prevPath[po:po+k], col, in.rev, in.revKeys, b.keyBuf, &b.work)
		}
		if srv < 0 {
			clear(col)
		}
		b.srv = append(b.srv, int32(srv))
	}
	b.rowEnd = append(b.rowEnd, len(b.chain))
}

// dirtySet tracks logical clusters whose subtree membership changed,
// per level.
type dirtySet []map[uint64]bool

func (d dirtySet) is(k int, id uint64) bool {
	if k < 0 || k >= len(d) {
		return true // unknown level: be conservative
	}
	return d[k][id]
}

func (d dirtySet) mark(k int, id uint64) bool {
	if k < 0 || k >= len(d) {
		return false
	}
	if d[k][id] {
		return false
	}
	d[k][id] = true
	return true
}

// sized returns *d sized and cleared for maxL levels, growing *d when
// it has fewer.
func (d *dirtySet) sized(maxL int) dirtySet {
	for len(*d) <= maxL {
		*d = append(*d, map[uint64]bool{})
	}
	s := (*d)[:maxL+1]
	for k := range s {
		clear(s[k])
	}
	return s
}

// dirtySubtrees returns the logical clusters whose member-key sets
// differ between the two snapshots (including clusters present in only
// one), with dirtiness propagated to all ancestors in both snapshots.
// The pre-propagation marks — the clusters whose own member-key set
// changed — are recorded in sc.own as a byproduct. The returned set
// aliases the scratch and is valid until its next call.
func (sc *UpdateScratch) dirtySubtrees(
	prevH *cluster.Hierarchy, prevIDs *cluster.Identities,
	nextH *cluster.Hierarchy, nextIDs *cluster.Identities,
) dirtySet {
	maxL := prevH.L()
	if nextH.L() > maxL {
		maxL = nextH.L()
	}
	dirty := sc.dirty.sized(maxL)
	own := sc.own.sized(maxL)
	if sc.pm == nil {
		sc.pm = map[uint64][]uint64{}
		sc.nm = map[uint64][]uint64{}
	}
	for k := 1; k <= maxL; k++ {
		var pm, nm map[uint64][]uint64
		pm, sc.pmBack = fillMemberKeySets(sc.pm, sc.pmBack, &sc.spans, prevH, prevIDs, k)
		nm, sc.nmBack = fillMemberKeySets(sc.nm, sc.nmBack, &sc.spans, nextH, nextIDs, k)
		//lint:ignore maprange order-free set marking; dirty membership is the only outcome
		for id, keys := range pm {
			nk, ok := nm[id]
			if !ok || !equalUints(keys, nk) {
				dirty.mark(k, id)
				own.mark(k, id)
			}
		}
		//lint:ignore maprange order-free set marking; dirty membership is the only outcome
		for id := range nm {
			if _, ok := pm[id]; !ok {
				dirty.mark(k, id)
				own.mark(k, id)
			}
		}
	}
	// Propagate upward in both snapshots: a descent from an ancestor
	// may pass through a dirty cluster. Snapshot the level's IDs in
	// sorted order first — markAncestors mutates the dirty set while
	// we walk it, and ranging over a map under mutation is unspecified.
	if sc.prevHead == nil {
		sc.prevHead = map[uint64]int{}
		sc.nextHead = map[uint64]int{}
	}
	for k := 1; k <= maxL; k++ {
		sc.idsBuf = sc.idsBuf[:0]
		for id := range dirty[k] {
			sc.idsBuf = append(sc.idsBuf, id)
		}
		if len(sc.idsBuf) == 0 {
			continue
		}
		slices.Sort(sc.idsBuf)
		prevHead := fillHeadIndex(sc.prevHead, prevH, prevIDs, k)
		nextHead := fillHeadIndex(sc.nextHead, nextH, nextIDs, k)
		for _, id := range sc.idsBuf {
			if hd, ok := prevHead[id]; ok {
				markAncestors(prevH, prevIDs, k, hd, dirty)
			}
			if hd, ok := nextHead[id]; ok {
				markAncestors(nextH, nextIDs, k, hd, dirty)
			}
		}
	}
	return dirty
}

// fillHeadIndex fills idx (cleared first) with the logical ID -> head
// map of h's level k. Should two heads carry one ID, the first in
// LevelNodes order is kept, which is the head a scan of the level
// finds first.
func fillHeadIndex(idx map[uint64]int, h *cluster.Hierarchy, ids *cluster.Identities, k int) map[uint64]int {
	clear(idx)
	for _, hd := range h.LevelNodes(k) {
		if id, ok := ids.Logical(k, hd); ok {
			if _, dup := idx[id]; !dup {
				idx[id] = hd
			}
		}
	}
	return idx
}

// fillMemberKeySets fills out (cleared first) with each live logical
// level-k cluster's sorted member hash keys, packing the key slices
// into the back array; it returns the map and the grown backing. The
// views are fixed up only after the backing stops growing, so slice
// growth cannot invalidate them.
func fillMemberKeySets(
	out map[uint64][]uint64, back []uint64, spans *[]keySpan,
	h *cluster.Hierarchy, ids *cluster.Identities, k int,
) (map[uint64][]uint64, []uint64) {
	clear(out)
	back = back[:0]
	*spans = (*spans)[:0]
	if k > h.L() {
		return out, back
	}
	for _, head := range h.LevelNodes(k) {
		id, ok := ids.Logical(k, head)
		if !ok {
			continue
		}
		start := len(back)
		back = appendMemberKeys(back, ids, k, h.MembersAt(k, head))
		slices.Sort(back[start:])
		*spans = append(*spans, keySpan{id: id, start: start, end: len(back)})
	}
	for _, sp := range *spans {
		out[sp.id] = back[sp.start:sp.end:sp.end]
	}
	return out, back
}

// markAncestors marks the ancestors of the level-k cluster headed by
// head dirty, within one snapshot.
func markAncestors(h *cluster.Hierarchy, ids *cluster.Identities, k, head int, dirty dirtySet) {
	cur := head
	for j := k; j < h.L(); j++ {
		parent := h.Levels[j].MemberOf(cur)
		if parent < 0 {
			return
		}
		pid, ok := ids.Logical(j+1, parent)
		if !ok {
			return
		}
		if !dirty.mark(j+1, pid) {
			return // already propagated through here
		}
		cur = parent
	}
}

func equalUints(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
