package cluster

import "repro/internal/topology"

// The incremental fast path: patch the previous snapshot by the tick's
// link-event delta instead of rebuilding the ALCA fixed point.
//
// The loop keeps two snapshots alive (t and t-1), so the maintainer
// owns a third object — the retired t-2 snapshot handed back via
// Retire — and turns it into the t snapshot in two steps:
//
//  1. replay: bring the t-2 object up to t-1 content by copying, from
//     in.PrevH, exactly the keys the previous tick's patch touched
//     (the touch log, ping-ponged across two generations). Clean keys
//     already hold the right values because the object was itself the
//     product of a patch two ticks ago.
//  2. patch: advance the object from t-1 to t level by level, seeding
//     per-level dirty sets from the tick's level-0 link events and
//     lifting the delta upward (incremental_level.go), re-matching
//     identities only for member-dirty clusters (incremental_match.go)
//     and re-electing only dirty neighborhoods (incremental_elect.go).
//     Every patch-phase mutation is logged for the next tick's replay.
//
// Any dynamic precondition failure (hierarchy depth change, forced-top
// transition, identity anomaly) aborts: the identity tracker's fresh-ID
// counter and the elector's hysteresis state are restored, the torn
// snapshot is recycled, and the caller falls back to the oracle
// rebuild. Correctness of the survivors is pinned by the
// incremental-hierarchy-equal invariant and the oracle differentials.

// incState is the incremental maintainer's persistent cross-tick
// state: the retired snapshot being recycled into the next one, the
// ping-ponged touch logs, per-level lifted-edge/witness/carrier state,
// and the reusable scratch of the patch engine.
type incState struct {
	// base is the retired t-2 snapshot (stored by Retire), patched in
	// place into the t snapshot. nil while handed out to the loop.
	base    *Hierarchy
	baseIDs *Identities
	// valid records that the previous Maintain was served by the fast
	// path, so base differs from in.PrevH only by the touch log. A
	// fallback or abort clears it; the next fast path then resyncs.
	valid bool
	// flip selects the touch generation being recorded; touch[flip^1]
	// is the previous tick's log, consumed by replay.
	flip  int
	touch [2][]touchLevel
	lvls  []*incLevel

	// Match scratch (incremental_match.go). Pair counting reuses the
	// arena's matchScratch; only the assignment map and the descendant
	// walk stacks live here.
	assign  map[int]uint64
	descBuf []int
	descLvl []int

	// Election scratch (incremental_elect.go).
	dirtyBuf   []int
	headBuf    []int
	deltaState map[int]int
	candSet    map[int]bool
	candList   []int
	aliveOv    map[int]bool
	uSet       map[int]bool
	uList      []int
	deathBuf   []int
	moveBuf    []moveRec
	u64Buf     []uint64

	// Lift scratch (incremental_elect.go).
	edgeCand []topology.EdgeKey
	pairCand []topology.EdgeKey
	downBuf  []topology.EdgeKey
	upBuf    []topology.EdgeKey
	mergeBuf []topology.EdgeKey
}

// touchLevel is one level's patch-phase mutation log: the map keys
// written or deleted while advancing the snapshot one tick. Values are
// not logged — replay copies them from the t-1 snapshot.
type touchLevel struct {
	nodes    []int // Head / Member keys
	clusters []int // State / Members keys
	ids      []int // Identities.byLevel[k-1] keys (k >= 1)
}

// incLevel is the per-level state of the patch engine. edges, witness
// and carrier persist across ticks (single generation, tracking the
// newest snapshot); the rest is per-tick scratch.
type incLevel struct {
	// edges is the authoritative sorted level-k edge list (k >= 1),
	// advanced each tick by the lifted event delta ev.
	edges []topology.EdgeKey
	// witness counts, for each level-k cluster pair, the number of
	// level-(k-1) edges crossing between the two clusters (k >= 1). A
	// pair is a level-k edge iff its witness count is positive.
	witness map[topology.EdgeKey]int32
	// carrier maps each live logical level-k cluster ID to the physical
	// head currently carrying it (k >= 1) — the persistent form of the
	// oracle's per-build carrier map.
	carrier map[uint64]int

	// Per-tick scratch.
	ev         []topology.LinkEvent // level-k link events (downs then ups, ascending)
	adds, rems []int                // level-k node-set delta, sorted
	ddPrev     map[int]bool         // prev-snapshot clusters with changed member keys
	ddNext     map[int]bool         // next-snapshot clusters with changed member keys
	ddPrevL    []int
	ddNextL    []int
	logChanged []int          // nodes whose logical ID changed this tick
	relLog     map[uint64]int // released logical -> its t-1 physical head
	released   []uint64       // sorted released logicals
	dirtySet   map[int]bool   // D_k election dedup
}

// moveRec is one level-k node's membership change during the patch:
// from/to are level-(k+1) clusters, -1 for none (node appeared or
// departed).
type moveRec struct{ u, from, to int }

// maintainIncremental is the fast path: patch the previous snapshot by
// the tick's link-event delta. ok=false means a dynamic precondition
// failed mid-flight; the caller then falls back to a full rebuild (all
// tracker and elector state mutated by the partial attempt has been
// restored, and the torn snapshot recycled).
func (m *IncrementalMaintainer) maintainIncremental(in *MaintainInput) (*Hierarchy, *Identities, bool) {
	st := &m.inc
	if st.base == nil || st.baseIDs == nil {
		return nil, nil, false
	}
	if st.valid && !st.replay(m.arena, in.PrevH, in.PrevIDs) {
		st.valid = false
	}
	if !st.valid {
		if !st.resync(m.arena, in.PrevH, in.PrevIDs, in.G0.IDSpace()) {
			m.arena.Recycle(st.base, st.baseIDs)
			st.base, st.baseIDs = nil, nil
			return nil, nil, false
		}
	}
	st.valid = false
	st.flip ^= 1

	savedNext := m.tr.nextID
	var elSnap Elector
	if m.elStateful != nil && m.elRestore != nil {
		elSnap = m.elRestore.CloneElector()
	}
	if !m.patchAll(in) {
		m.tr.nextID = savedNext
		if elSnap != nil {
			m.elRestore.RestoreElector(elSnap)
		}
		m.arena.discard(st.base, st.baseIDs)
		st.base, st.baseIDs = nil, nil
		return nil, nil, false
	}
	st.valid = true
	h, ids := st.base, st.baseIDs
	st.base, st.baseIDs = nil, nil // handed to the loop; returns via Retire
	return h, ids, true
}

// retireIncremental stores a retired snapshot as the patch base,
// recycling any unclaimed previous base first.
func (m *IncrementalMaintainer) retireIncremental(h *Hierarchy, ids *Identities) {
	st := &m.inc
	if h == nil || ids == nil {
		m.arena.Recycle(h, ids)
		return
	}
	if st.base != nil || st.baseIDs != nil {
		m.arena.Recycle(st.base, st.baseIDs)
		st.valid = false
	}
	st.base, st.baseIDs = h, ids
}

// replay brings base (t-2 content) up to prevH (t-1 content) by
// copying the keys recorded in the previous tick's touch log. Returns
// false when the shapes disagree (the previous tick cannot have been a
// structure-preserving patch), telling the caller to resync instead.
func (st *incState) replay(a *Arena, prevH *Hierarchy, prevIDs *Identities) bool {
	base, baseIDs := st.base, st.baseIDs
	log := st.touch[st.flip]
	if len(base.Levels) != len(prevH.Levels) || len(log) != len(prevH.Levels) {
		return false
	}
	if len(baseIDs.byLevel) != len(prevIDs.byLevel) {
		return false
	}
	if base.ForcedTop != prevH.ForcedTop {
		return false
	}
	for k, plvl := range prevH.Levels {
		blvl := base.Levels[k]
		blvl.Nodes = append(blvl.Nodes[:0], plvl.Nodes...)
		tl := &log[k]
		for _, u := range tl.nodes {
			blvl.Head[u] = int32(plvl.HeadOf(u))
			blvl.Member[u] = int32(plvl.MemberOf(u))
		}
		for _, c := range tl.clusters {
			if ps := plvl.StateOf(c); ps >= 0 {
				dst := blvl.Members[c]
				if dst == nil {
					dst = a.getInts()
				}
				blvl.Members[c] = append(dst[:0], plvl.Members[c]...)
				blvl.State[c] = int32(ps)
			} else {
				a.putInts(blvl.Members[c])
				blvl.Members[c] = nil
				blvl.State[c] = -1
			}
		}
		if k >= 1 {
			bm := baseIDs.byLevel[k-1]
			for _, hd := range tl.ids {
				bm[hd] = noLogical
				if id, ok := prevIDs.Logical(k, hd); ok {
					bm[hd] = id
				}
			}
		}
	}
	return true
}

// resync rebuilds base as a full deep copy of prevH/prevIDs (recycling
// base's own storage through the arena first, so the copy reuses it),
// and recomputes the per-level edge lists, witness counts and carrier
// maps from scratch. Run whenever the previous tick was not a fast
// path. Returns false when prevH carries no snapshot to copy.
func (st *incState) resync(a *Arena, prevH *Hierarchy, prevIDs *Identities, idSpace int) bool {
	if len(prevH.Levels) == 0 {
		return false
	}
	a.Recycle(st.base, st.baseIDs)
	base := a.getHier()
	baseIDs := a.getIdents()
	base.Reach = prevH.Reach
	base.ForcedTop = prevH.ForcedTop
	for k, plvl := range prevH.Levels {
		lvl := a.getLevel()
		lvl.K = k
		lvl.Nodes = append(a.getInts(), plvl.Nodes...)
		lvl.Graph = nil // rebuilt by the patch (level 0 uses in.G0)
		if plvl.Elected() {
			// Pooled levels arrive with every entry reset.
			lvl.sizeElection(idSpace)
			for _, u := range plvl.Nodes {
				lvl.Head[u], lvl.Member[u] = plvl.Head[u], plvl.Member[u]
			}
			for _, c := range prevH.Levels[k+1].Nodes {
				lvl.State[c] = plvl.State[c]
				lvl.Members[c] = append(a.getInts(), plvl.Members[c]...)
			}
		}
		base.Levels = append(base.Levels, lvl)
	}
	for k := 1; k <= prevH.L(); k++ {
		row := a.getIDRow(idSpace)
		for _, hd := range prevH.Levels[k].Nodes {
			if id, ok := prevIDs.Logical(k, hd); ok {
				row[hd] = id
			}
		}
		baseIDs.byLevel = append(baseIDs.byLevel, row)
	}
	st.base, st.baseIDs = base, baseIDs

	// Per-level persistent lift state.
	L := prevH.L()
	for len(st.lvls) <= L {
		st.lvls = append(st.lvls, &incLevel{
			witness:  map[topology.EdgeKey]int32{},
			carrier:  map[uint64]int{},
			ddPrev:   map[int]bool{},
			ddNext:   map[int]bool{},
			relLog:   map[uint64]int{},
			dirtySet: map[int]bool{},
		})
	}
	for k := 1; k <= L; k++ {
		lv := st.lvls[k]
		lv.edges = prevH.Levels[k].Graph.AppendEdges(lv.edges[:0])
		clear(lv.witness)
		below := prevH.Levels[k-1]
		below.Graph.ForEachEdge(func(e topology.EdgeKey) {
			pa, pb := e.Nodes()
			ca, cb := below.MemberOf(pa), below.MemberOf(pb)
			if ca >= 0 && cb >= 0 && ca != cb {
				lv.witness[topology.MakeEdgeKey(ca, cb)]++
			}
		})
		clear(lv.carrier)
		for _, hd := range prevH.Levels[k].Nodes {
			if id, ok := prevIDs.Logical(k, hd); ok {
				lv.carrier[id] = hd
			}
		}
	}
	// Both touch generations describe patches of snapshots that no
	// longer exist; clear them.
	for g := range st.touch {
		for i := range st.touch[g] {
			tl := &st.touch[g][i]
			tl.nodes, tl.clusters, tl.ids = tl.nodes[:0], tl.clusters[:0], tl.ids[:0]
		}
		st.touch[g] = st.touch[g][:0]
	}
	return true
}

// touchLog returns this tick's touch log sized for L+1 levels, with
// every level's key lists reset.
func (st *incState) touchLog(L int) []touchLevel {
	log := st.touch[st.flip]
	for len(log) <= L {
		log = append(log, touchLevel{})
	}
	log = log[:L+1]
	for i := range log {
		tl := &log[i]
		tl.nodes, tl.clusters, tl.ids = tl.nodes[:0], tl.clusters[:0], tl.ids[:0]
	}
	st.touch[st.flip] = log
	return log
}

// diffSortedInto appends next\prev to adds and prev\next to rems (both
// inputs sorted ascending) and returns the extended slices.
func diffSortedInto(prev, next, adds, rems []int) ([]int, []int) {
	i, j := 0, 0
	for i < len(prev) && j < len(next) {
		switch {
		case prev[i] == next[j]:
			i++
			j++
		case prev[i] < next[j]:
			rems = append(rems, prev[i])
			i++
		default:
			adds = append(adds, next[j])
			j++
		}
	}
	rems = append(rems, prev[i:]...)
	adds = append(adds, next[j:]...)
	return adds, rems
}

// mergeNodesInto writes (prev + adds - rems) into dst (all sorted,
// adds/rems disjoint deltas of prev) and returns dst.
func mergeNodesInto(dst, prev, adds, rems []int) []int {
	ai, ri := 0, 0
	for _, v := range prev {
		for ai < len(adds) && adds[ai] < v {
			dst = append(dst, adds[ai])
			ai++
		}
		if ri < len(rems) && rems[ri] == v {
			ri++
			continue
		}
		dst = append(dst, v)
	}
	dst = append(dst, adds[ai:]...)
	return dst
}

// containsSortedInt reports whether sorted s contains v.
func containsSortedInt(s []int, v int) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == v
}

// containsSortedEdge reports whether sorted s contains e.
func containsSortedEdge(s []topology.EdgeKey, e topology.EdgeKey) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < e {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == e
}

// insertSortedInt inserts v into sorted s (no-op if present) and
// returns the slice.
func insertSortedInt(s []int, v int) []int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo] == v {
		return s
	}
	s = append(s, 0)
	copy(s[lo+1:], s[lo:])
	s[lo] = v
	return s
}

// removeSortedInt removes v from sorted s (no-op if absent) and
// returns the slice.
func removeSortedInt(s []int, v int) []int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(s) || s[lo] != v {
		return s
	}
	copy(s[lo:], s[lo+1:])
	return s[:len(s)-1]
}
