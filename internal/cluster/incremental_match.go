package cluster

import "slices"

// Incremental identity matching. The oracle's matchLevel greedily
// matches every level-k cluster to the previous snapshot by maximal
// level-0 descendant overlap. Under the patch engine only the
// member-dirty clusters (ddNext) can gain or lose a logical identity:
// a clean cluster's descendant set is byte-identical to its previous
// self (member-key dirtiness chains upward, so clean implies the whole
// subtree is unchanged), which makes its (own-logical, itself) pair an
// unbeatable exclusive singleton in the global greedy — no dirty
// cluster can produce a counted pair against a clean cluster's
// logical, in either direction. The greedy restricted to the dirty
// clusters and the released logicals (those of member-dirty or dead
// previous clusters) therefore reproduces the global assignment, and
// the fresh-ID allocation order (ascending over unmatched new heads)
// is preserved because the unmatched set is contained in the sorted
// dirty list. The proof obligations are guarded at runtime: a counted
// pair naming a non-released logical aborts the fast path.

// matchPatch re-matches the member-dirty level-k clusters against the
// released previous logicals, applies the resulting identity updates
// to baseIDs and the carrier map, records changed logicals for the
// election dirty set, and feeds the LM-facing dirty-cluster set.
func (m *IncrementalMaintainer) matchPatch(k int, lv *incLevel, tl *touchLevel, in *MaintainInput) bool {
	st := &m.inc
	prevIDs := in.PrevIDs
	baseIDs := st.baseIDs
	if k > len(baseIDs.byLevel) {
		return false
	}
	idm := baseIDs.byLevel[k-1]

	slices.Sort(lv.ddNextL)
	slices.Sort(lv.ddPrevL)
	dirtyNew := lv.ddNextL

	// Released logicals: those of previous clusters whose member keys
	// changed or that died. Everything else keeps its identity.
	for _, pc := range lv.ddPrevL {
		q, ok := prevIDs.Logical(k, pc)
		if !ok {
			return false // every previous cluster carries a logical
		}
		lv.relLog[q] = pc
		lv.released = append(lv.released, q)
	}
	slices.Sort(lv.released)

	// Dead clusters first: their identity rows disappear.
	for _, pc := range lv.rems {
		if idm[pc] != noLogical {
			idm[pc] = noLogical
			tl.ids = append(tl.ids, pc)
		}
		if q, ok := prevIDs.Logical(k, pc); ok {
			if w, ok2 := lv.carrier[q]; ok2 && w == pc {
				delete(lv.carrier, q)
			}
		}
	}

	if len(dirtyNew) > 0 {
		if !m.assignLogicals(k, lv, dirtyNew, in) {
			return false
		}
		for _, h := range dirtyNew {
			newq, ok := st.assign[h]
			if !ok {
				return false
			}
			oldq := idm[h]
			had := oldq != noLogical
			if !had || oldq != newq {
				idm[h] = newq
				tl.ids = append(tl.ids, h)
				if had {
					lv.logChanged = append(lv.logChanged, h)
					if w, ok := lv.carrier[oldq]; ok && w == h {
						delete(lv.carrier, oldq)
					}
				}
			}
			lv.carrier[newq] = h
		}
	}

	// LM-facing dirty clusters: the previous and new logicals of every
	// member-dirty cluster, at this level (ancestor propagation is the
	// chaining that filled ddPrev/ddNext level by level).
	for _, pc := range lv.ddPrevL {
		if q, ok := prevIDs.Logical(k, pc); ok {
			m.dirty.mark(k, q)
		}
	}
	for _, h := range dirtyNew {
		if q, ok := baseIDs.Logical(k, h); ok {
			m.dirty.mark(k, q)
		}
	}
	return true
}

// assignLogicals fills st.assign with the logical ID of every cluster
// in the sorted dirty list M, reproducing the oracle's greedy.
func (m *IncrementalMaintainer) assignLogicals(k int, lv *incLevel, M []int, in *MaintainInput) bool {
	st := &m.inc
	prevIDs := in.PrevIDs
	if st.assign == nil {
		st.assign = map[int]uint64{}
	} else {
		clear(st.assign)
	}

	// Fast path — the steady-state shape at upper levels: exactly one
	// dirty cluster, re-inheriting (or not) its own released logical.
	// One previous-descendant witness decides the whole greedy, so the
	// walk early-exits after the first leaf that stayed.
	if len(M) == 1 && len(lv.released) == 1 {
		h := M[0]
		q := lv.released[0]
		if oldq, ok := prevIDs.Logical(k, h); ok && oldq == q {
			if m.hasPrevWitness(k, h, q, in) {
				st.assign[h] = q
			} else {
				st.assign[h] = m.tr.alloc(h)
			}
			return true
		}
	}

	counts, pairs, usedPrev := m.arena.matchScratch()
	for _, h := range M {
		m.countOverlap(k, h, in, counts)
	}
	for p := range counts {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(x, y matchPair) int {
		cx, cy := counts[x], counts[y]
		switch {
		case cx != cy:
			if cx > cy {
				return -1
			}
			return 1
		case x.prev != y.prev:
			if x.prev < y.prev {
				return -1
			}
			return 1
		default:
			return x.next - y.next
		}
	})
	m.arena.pairs = pairs
	for _, p := range pairs {
		if _, rel := lv.relLog[p.prev]; !rel {
			return false // proof guard: a clean cluster's logical surfaced
		}
		if usedPrev[p.prev] {
			continue
		}
		if _, taken := st.assign[p.next]; taken {
			continue
		}
		st.assign[p.next] = p.prev
		usedPrev[p.prev] = true
	}
	for _, h := range M {
		if _, ok := st.assign[h]; !ok {
			st.assign[h] = m.tr.alloc(h)
		}
	}
	return true
}

// countOverlap walks the current level-0 descendants of the level-k
// cluster h (through the patched base hierarchy) and counts, for each,
// the logical of its previous level-k ancestor.
func (m *IncrementalMaintainer) countOverlap(k, h int, in *MaintainInput, counts map[matchPair]int) {
	st := &m.inc
	base := st.base
	nodes, lvls := st.descBuf[:0], st.descLvl[:0]
	nodes = append(nodes, h)
	lvls = append(lvls, k)
	for len(nodes) > 0 {
		u := nodes[len(nodes)-1]
		j := lvls[len(lvls)-1]
		nodes, lvls = nodes[:len(nodes)-1], lvls[:len(lvls)-1]
		if j == 0 {
			if q, ok := prevLogicalAt(in, u, k); ok {
				counts[matchPair{prev: q, next: h}]++
			}
			continue
		}
		for _, c := range base.Levels[j-1].MembersOf(u) {
			nodes = append(nodes, c)
			lvls = append(lvls, j-1)
		}
	}
	st.descBuf, st.descLvl = nodes, lvls
}

// hasPrevWitness reports whether any current level-0 descendant of the
// level-k cluster h had previous level-k logical q, early-exiting at
// the first witness.
func (m *IncrementalMaintainer) hasPrevWitness(k, h int, q uint64, in *MaintainInput) bool {
	st := &m.inc
	base := st.base
	nodes, lvls := st.descBuf[:0], st.descLvl[:0]
	nodes = append(nodes, h)
	lvls = append(lvls, k)
	found := false
	for len(nodes) > 0 && !found {
		u := nodes[len(nodes)-1]
		j := lvls[len(lvls)-1]
		nodes, lvls = nodes[:len(nodes)-1], lvls[:len(lvls)-1]
		if j == 0 {
			if ql, ok := prevLogicalAt(in, u, k); ok && ql == q {
				found = true
			}
			continue
		}
		for _, c := range base.Levels[j-1].MembersOf(u) {
			nodes = append(nodes, c)
			lvls = append(lvls, j-1)
		}
	}
	st.descBuf, st.descLvl = nodes, lvls
	return found
}

// prevLogicalAt returns the logical ID of level-0 node v's level-k
// cluster in the previous snapshot.
func prevLogicalAt(in *MaintainInput, v, k int) (uint64, bool) {
	cur := v
	for j := 0; j < k; j++ {
		cur = in.PrevH.Levels[j].MemberOf(cur)
		if cur < 0 {
			return 0, false
		}
	}
	return in.PrevIDs.Logical(k, cur)
}
