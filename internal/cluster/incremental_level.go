package cluster

import "repro/internal/topology"

// patchAll advances base from the t-1 snapshot to t, level by level,
// mirroring the oracle's per-level order exactly: node set and level
// graph first, then identity matching (k >= 1), then the termination
// checks, then elections, membership application, dirty-set chaining
// and the lifted-edge delta for the level above. Returns false when
// the hierarchy's shape would change (depth, forced-top transition) or
// an internal consistency guard trips; the caller falls back.
func (m *IncrementalMaintainer) patchAll(in *MaintainInput) bool {
	st := &m.inc
	base := st.base
	prevH := in.PrevH
	L := prevH.L()
	log := st.touchLog(L)
	idSpace := in.G0.IDSpace()
	m.dirty.reset(L)

	// Reset per-tick scratch for every level up front: level k's
	// processing seeds level k+1's ev/adds/rems.
	for k := 0; k <= L; k++ {
		lv := st.lvls[k]
		lv.ev = lv.ev[:0]
		lv.adds, lv.rems = lv.adds[:0], lv.rems[:0]
		clear(lv.ddPrev)
		clear(lv.ddNext)
		lv.ddPrevL, lv.ddNextL = lv.ddPrevL[:0], lv.ddNextL[:0]
		lv.logChanged = lv.logChanged[:0]
		clear(lv.relLog)
		lv.released = lv.released[:0]
		clear(lv.dirtySet)
	}

	for k := 0; k <= L; k++ {
		lv := st.lvls[k]
		blvl, plvl := base.Levels[k], prevH.Levels[k]

		// Node set and level graph.
		if k == 0 {
			blvl.Nodes = append(blvl.Nodes[:0], in.Nodes...)
			blvl.Graph = in.G0
			lv.adds, lv.rems = diffSortedInto(plvl.Nodes, in.Nodes, lv.adds, lv.rems)
		} else {
			blvl.Nodes = mergeNodesInto(blvl.Nodes[:0], plvl.Nodes, lv.adds, lv.rems)
			st.applyEdgeDelta(lv)
			g := blvl.Graph
			if g == nil {
				g = m.arena.getGraph(idSpace)
			}
			blvl.Graph = topology.BuildFromSortedEdgesInto(g, idSpace, lv.edges)
		}

		// Identity matching for the freshly formed level-k clusters
		// (before the termination checks, like the oracle).
		if k >= 1 {
			if !m.matchPatch(k, lv, &log[k], in) {
				return false
			}
		}

		n := len(blvl.Nodes)
		if k == L && !prevH.ForcedTop {
			// The previous snapshot terminated here; the new one must
			// terminate the same way or the depth changes.
			if n <= 1 || k >= m.cfgD.MaxLevels {
				break
			}
			if k == 0 {
				// A connected 2+-node giant always compresses under
				// closed-neighborhood argmax, so the hierarchy would
				// deepen.
				return false
			}
			if m.cfgD.ForceTopAt > 0 && n <= m.cfgD.ForceTopAt {
				return false // would now close with a forced top
			}
			if len(lv.edges) > 0 {
				return false // the level would compress and deepen
			}
			// Still an edgeless non-compressing terminal. The oracle's
			// elections here are pure argmax self-elections (the
			// previous terminal carries no election data, so every
			// prevHead is -1) whose results are dropped and whose only
			// elector-state effects are deletes of keys that cannot
			// exist — a no-op, safely skipped.
			break
		}

		// Non-terminal level (or the forced election level): it must
		// keep electing, with the same forced/unforced shape.
		if n <= 1 || k >= m.cfgD.MaxLevels {
			return false // would terminate early; depth shrinks
		}
		trig := m.cfgD.ForceTopAt > 0 && k >= 1 && n <= m.cfgD.ForceTopAt
		forcedHere := prevH.ForcedTop && k == L-1
		if trig != forcedHere {
			return false // forced-top boundary crossed
		}
		if forcedHere {
			if !m.patchForcedTop(in, lv, blvl, log) {
				return false
			}
			break
		}
		if !m.electPatch(in, k, lv, blvl, plvl, log) {
			return false
		}
	}
	return true
}

// applyEdgeDelta advances lv.edges (sorted) by lv.ev (downs then ups,
// each ascending) in one merge pass, recycling the merge buffer's
// backing array with the old edge list's.
func (st *incState) applyEdgeDelta(lv *incLevel) {
	if len(lv.ev) == 0 {
		return
	}
	nDown := 0
	for nDown < len(lv.ev) && !lv.ev[nDown].Up {
		nDown++
	}
	downs, ups := lv.ev[:nDown], lv.ev[nDown:]
	tmp := st.mergeBuf[:0]
	di, ui := 0, 0
	for _, e := range lv.edges {
		for ui < len(ups) && ups[ui].Edge < e {
			tmp = append(tmp, ups[ui].Edge)
			ui++
		}
		if di < len(downs) && downs[di].Edge == e {
			di++
			continue
		}
		tmp = append(tmp, e)
	}
	for ; ui < len(ups); ui++ {
		tmp = append(tmp, ups[ui].Edge)
	}
	st.mergeBuf = lv.edges[:0]
	lv.edges = tmp
}

// patchForcedTop handles the forced-top election level k = L-1 and the
// top level L: every node elects the maximum ID, the top level is the
// single forced cluster, and the top identity is re-matched only when
// the top membership changed. Mirrors forceTop + the oracle's
// subsequent matchLevel(k+1) exactly.
func (m *IncrementalMaintainer) patchForcedTop(in *MaintainInput, lv *incLevel, blvl *Level, log []touchLevel) bool {
	st := &m.inc
	base := st.base
	prevH := in.PrevH
	L := prevH.L()
	tl := &log[L-1]
	n := len(blvl.Nodes)
	root := blvl.Nodes[n-1] // sorted ascending
	prevRoot := prevH.Levels[L].Nodes[0]
	lvTop := st.lvls[L]

	if changed := root != prevRoot || len(lv.adds) > 0 || len(lv.rems) > 0; changed {
		for _, u := range lv.rems {
			blvl.Head[u], blvl.Member[u] = -1, -1
			tl.nodes = append(tl.nodes, u)
		}
		if root != prevRoot {
			for _, u := range blvl.Nodes {
				blvl.Head[u], blvl.Member[u] = int32(root), int32(root)
				tl.nodes = append(tl.nodes, u)
			}
			if blvl.StateOf(prevRoot) >= 0 {
				m.arena.putInts(blvl.Members[prevRoot])
				blvl.Members[prevRoot] = nil
				blvl.State[prevRoot] = -1
			}
			tl.clusters = append(tl.clusters, prevRoot)
		} else {
			for _, u := range lv.adds {
				blvl.Head[u], blvl.Member[u] = int32(root), int32(root)
				tl.nodes = append(tl.nodes, u)
			}
		}
		s := blvl.Members[root]
		if s == nil {
			s = m.arena.getInts()
		}
		blvl.Members[root] = append(s[:0], blvl.Nodes...)
		blvl.State[root] = int32(n - 1)
		tl.clusters = append(tl.clusters, root)

		lvTop.ddNext[root] = true
		lvTop.ddNextL = append(lvTop.ddNextL, root)
		lvTop.ddPrev[prevRoot] = true
		lvTop.ddPrevL = append(lvTop.ddPrevL, prevRoot)
	} else if len(lv.ddNextL) > 0 || len(lv.ddPrevL) > 0 {
		// Top membership keys are unchanged but a member subtree is
		// dirty: chain the dirtiness to the top cluster so the
		// identity re-match and the LM dirty set both see it.
		lvTop.ddNext[root] = true
		lvTop.ddNextL = append(lvTop.ddNextL, root)
		lvTop.ddPrev[prevRoot] = true
		lvTop.ddPrevL = append(lvTop.ddPrevL, prevRoot)
	}
	if root != prevRoot {
		lvTop.adds = append(lvTop.adds, root)
		lvTop.rems = append(lvTop.rems, prevRoot)
	}

	topB := base.Levels[L]
	topB.Nodes = append(topB.Nodes[:0], root)
	if topB.Graph == nil {
		topB.Graph = m.arena.getGraph(in.G0.IDSpace())
	} else {
		topB.Graph.Reset(in.G0.IDSpace())
	}
	base.ForcedTop = true
	lvTop.edges = lvTop.edges[:0]

	return m.matchPatch(L, lvTop, &log[L], in)
}
