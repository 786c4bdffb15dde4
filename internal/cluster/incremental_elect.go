package cluster

import (
	"slices"

	"repro/internal/topology"
)

// Incremental elections. The LCA family is neighborhood-local: a
// node's vote depends only on its closed 1-hop neighborhood, its
// previous-head memory, and (for DebouncedLCA) a per-node grace timer.
// A node is therefore re-elected only when one of those inputs could
// have changed — the dirty set D_k:
//
//   - new level-k nodes (no stored election);
//   - endpoints of this level's link events (neighborhood changed; a
//     departed neighbor's edges all go down, so departures are covered);
//   - nodes whose logical ID changed (hysteresis is keyed by logical);
//   - previous members and neighbors of a head whose logical moved to
//     a different carrier or died (their prevHead translation changed
//     without any local event — the relabel corner);
//   - carriers of logicals holding a running grace timer (the timer
//     can expire with no topology change at all).
//
// Every other node's stored election is provably what the oracle would
// recompute, so Head/Member/State/Members are patched only around the
// dirty nodes, and the level-(k+1) input delta (node births/deaths,
// lifted link events via crossing-edge witness counts) is emitted for
// the next level.

// electPatch runs phases 4-8 of the per-level patch at non-terminal,
// non-forced level k: dirty-set seeding, elections, membership
// application, dirty chaining into level k+1, and the lifted-edge
// delta. Returns false when a structural guard trips.
func (m *IncrementalMaintainer) electPatch(in *MaintainInput, k int, lv *incLevel, blvl, plvl *Level, log []touchLevel) bool {
	st := &m.inc
	baseIDs := st.baseIDs
	tl := &log[k]
	lvUp := st.lvls[k+1]
	events := in.Events
	if k >= 1 {
		events = lv.ev
	}

	// Phase 4: the dirty election set D_k.
	dirty := st.dirtyBuf[:0]
	add := func(u int) {
		if !lv.dirtySet[u] && containsSortedInt(blvl.Nodes, u) {
			lv.dirtySet[u] = true
			dirty = append(dirty, u)
		}
	}
	for _, u := range lv.adds {
		add(u)
	}
	for _, e := range events {
		a, b := e.Edge.Nodes()
		add(a)
		add(b)
	}
	for _, u := range lv.logChanged {
		add(u)
	}
	if !m.elMemoryless && k >= 1 {
		// Relabel corner: a released logical now carried by a different
		// node (or by none) changes the prevHead translation of every
		// node that elected its old carrier, eventless. Those electors
		// are among the old carrier's previous members and neighbors —
		// plus grace-held electors, which the pending scan below covers.
		for _, q := range lv.released {
			ph := lv.relLog[q]
			if w, ok := lv.carrier[q]; ok && w == ph {
				continue
			}
			for _, v := range plvl.MembersOf(ph) {
				add(v)
			}
			for _, v := range plvl.Graph.Neighbors(ph) {
				add(v)
			}
		}
	}
	if m.elPending != nil {
		st.u64Buf = m.elPending.AppendPending(k, st.u64Buf[:0])
		for _, lu := range st.u64Buf {
			if k == 0 {
				add(int(lu))
			} else if w, ok := lv.carrier[lu]; ok {
				add(w)
			}
		}
	}
	slices.Sort(dirty)
	st.dirtyBuf = dirty

	// Phase 5: re-elect the dirty nodes only.
	prevHead := m.buildPatchPrevHead(k, lv, blvl, in)
	heads := st.headBuf[:0]
	if m.elStateful != nil {
		logicalOf := func(u int) uint64 {
			if k == 0 {
				return uint64(u)
			}
			if l, ok := baseIDs.Logical(k, u); ok {
				return l
			}
			return uint64(u)
		}
		heads = m.elStateful.ElectTracked(heads, &ElectCtx{
			Time: in.Now, Level: k, Nodes: dirty, Graph: blvl.Graph,
			PrevHead: prevHead, LogicalOf: logicalOf,
		})
	} else {
		heads = m.cfgD.Elector.Elect(heads, dirty, blvl.Graph, prevHead)
	}
	st.headBuf = heads

	// Phase 6: apply. First the Head rewrites and the elector-count
	// deltas; candidates are the clusters whose state or existence may
	// change.
	if st.deltaState == nil {
		st.deltaState = map[int]int{}
		st.candSet = map[int]bool{}
		st.aliveOv = map[int]bool{}
		st.uSet = map[int]bool{}
	}
	clear(st.deltaState)
	clear(st.candSet)
	clear(st.aliveOv)
	clear(st.uSet)
	cands := st.candList[:0]
	cand := func(c int) {
		if !st.candSet[c] {
			st.candSet[c] = true
			cands = append(cands, c)
		}
	}
	uList := st.uList[:0]
	uAdd := func(u int) {
		if !st.uSet[u] {
			st.uSet[u] = true
			uList = append(uList, u)
		}
	}
	for i, u := range dirty {
		nh := heads[i]
		oh := blvl.HeadOf(u)
		had := oh >= 0
		if had && oh == nh {
			continue
		}
		blvl.Head[u] = int32(nh)
		tl.nodes = append(tl.nodes, u)
		uAdd(u)
		if had {
			if oh != u {
				st.deltaState[oh]--
			}
			cand(oh)
		}
		if nh != u {
			st.deltaState[nh]++
		}
		cand(nh)
	}
	for _, u := range lv.rems {
		oh := blvl.HeadOf(u)
		if oh < 0 {
			continue
		}
		blvl.Head[u] = -1
		tl.nodes = append(tl.nodes, u)
		uAdd(u)
		if oh != u {
			st.deltaState[oh]--
		}
		cand(oh)
	}

	// Cluster liveness, births, and state rewrites. A cluster lives
	// iff it has a non-self elector (state > 0) or elects itself.
	deaths := st.deathBuf[:0]
	for _, c := range cands {
		oldState := blvl.StateOf(c)
		before := oldState >= 0
		oldState = max(oldState, 0)
		after := oldState+st.deltaState[c] > 0
		if !after && containsSortedInt(blvl.Nodes, c) && blvl.HeadOf(c) == c {
			after = true
		}
		st.aliveOv[c] = after
		switch {
		case after && !before: // birth
			blvl.Members[c] = m.arena.getInts()
			blvl.State[c] = int32(oldState + st.deltaState[c])
			tl.clusters = append(tl.clusters, c)
			lvUp.adds = append(lvUp.adds, c)
			uAdd(c)
		case after:
			if ns := oldState + st.deltaState[c]; ns != oldState {
				if ns < 0 {
					return false // elector count corrupted
				}
				blvl.State[c] = int32(ns)
				tl.clusters = append(tl.clusters, c)
			}
		case before: // death (cleanup deferred until members moved out)
			deaths = append(deaths, c)
			uAdd(c)
		}
	}
	st.deathBuf = deaths

	// Membership moves for every node whose election or head status
	// changed, and the departed nodes.
	slices.Sort(uList)
	st.uList = uList
	moves := st.moveBuf[:0]
	for _, u := range uList {
		oldMem := blvl.MemberOf(u)
		hadOld := oldMem >= 0
		newMem, hasNew := -1, false
		if containsSortedInt(blvl.Nodes, u) {
			headNow := false
			if ov, isCand := st.aliveOv[u]; isCand {
				headNow = ov
			} else {
				headNow = blvl.StateOf(u) >= 0
			}
			if headNow {
				newMem = u
			} else {
				newMem = blvl.HeadOf(u)
			}
			hasNew = true
		}
		if hadOld == hasNew && (!hasNew || oldMem == newMem) {
			continue
		}
		if hadOld {
			blvl.Members[oldMem] = removeSortedInt(blvl.Members[oldMem], u)
			tl.clusters = append(tl.clusters, oldMem)
		}
		if hasNew {
			blvl.Member[u] = int32(newMem)
			blvl.Members[newMem] = insertSortedInt(blvl.Members[newMem], u)
			tl.clusters = append(tl.clusters, newMem)
		} else {
			blvl.Member[u] = -1
		}
		tl.nodes = append(tl.nodes, u)
		from, to := -1, -1
		if hadOld {
			from = oldMem
		}
		if hasNew {
			to = newMem
		}
		moves = append(moves, moveRec{u: u, from: from, to: to})
	}
	for _, c := range deaths {
		s := blvl.Members[c]
		if len(s) != 0 {
			return false // a dead cluster's members must all have moved
		}
		m.arena.putInts(s)
		blvl.Members[c] = nil
		blvl.State[c] = -1
		tl.clusters = append(tl.clusters, c)
		lvUp.rems = append(lvUp.rems, c)
	}
	slices.Sort(lvUp.adds)
	slices.Sort(lvUp.rems)
	// The level's clusters before the patch were the previous level-
	// (k+1) nodes; births and deaths moved that count.
	if len(in.PrevH.Levels[k+1].Nodes)+len(lvUp.adds)-len(lvUp.rems) == len(blvl.Nodes) {
		return false // no compression: the level would become terminal
	}

	// Phase 7: member-key dirtiness for level k+1 — direct seeds from
	// the moves, symmetric cross-marks (an alive changed cluster is
	// dirty in both snapshots), and upward chaining of this level's
	// dirty clusters through their parents.
	ddP := func(c int) {
		if !lvUp.ddPrev[c] {
			lvUp.ddPrev[c] = true
			lvUp.ddPrevL = append(lvUp.ddPrevL, c)
		}
	}
	ddN := func(c int) {
		if !lvUp.ddNext[c] {
			lvUp.ddNext[c] = true
			lvUp.ddNextL = append(lvUp.ddNextL, c)
		}
	}
	for _, mv := range moves {
		if mv.from >= 0 {
			ddP(mv.from)
			if blvl.StateOf(mv.from) >= 0 {
				ddN(mv.from)
			}
		}
		if mv.to >= 0 {
			ddN(mv.to)
			if plvl.StateOf(mv.to) >= 0 {
				ddP(mv.to)
			}
		}
	}
	for _, c := range lv.ddNextL {
		if pb := blvl.MemberOf(c); pb >= 0 {
			ddN(pb)
			if plvl.StateOf(pb) >= 0 {
				ddP(pb)
			}
		}
	}
	for _, pc := range lv.ddPrevL {
		if pp := plvl.MemberOf(pc); pp >= 0 {
			ddP(pp)
			if blvl.StateOf(pp) >= 0 {
				ddN(pp)
			}
		}
	}

	// Phase 8: the lifted-edge delta. An underlying edge's contribution
	// to the level-(k+1) crossing-pair witness counts changes only if
	// the edge itself flipped or an endpoint changed membership.
	ec := st.edgeCand[:0]
	for _, e := range events {
		ec = append(ec, e.Edge)
	}
	for _, mv := range moves {
		for _, v := range plvl.Graph.Neighbors(mv.u) {
			ec = append(ec, topology.MakeEdgeKey(mv.u, v))
		}
		for _, v := range blvl.Graph.Neighbors(mv.u) {
			ec = append(ec, topology.MakeEdgeKey(mv.u, v))
		}
	}
	slices.Sort(ec)
	ec = dedupEdgesInPlace(ec)
	pairs := st.pairCand[:0]
	for _, e := range ec {
		a, b := e.Nodes()
		if pma, pmb := plvl.MemberOf(a), plvl.MemberOf(b); pma >= 0 && pmb >= 0 && pma != pmb && plvl.Graph.HasEdge(a, b) {
			pk := topology.MakeEdgeKey(pma, pmb)
			lvUp.witness[pk]--
			pairs = append(pairs, pk)
		}
		if bma, bmb := blvl.MemberOf(a), blvl.MemberOf(b); bma >= 0 && bmb >= 0 && bma != bmb && blvl.Graph.HasEdge(a, b) {
			pk := topology.MakeEdgeKey(bma, bmb)
			lvUp.witness[pk]++
			pairs = append(pairs, pk)
		}
	}
	slices.Sort(pairs)
	pairs = dedupEdgesInPlace(pairs)
	downs, ups := st.downBuf[:0], st.upBuf[:0]
	for _, pk := range pairs {
		w := lvUp.witness[pk]
		if w < 0 {
			return false // witness count corrupted
		}
		present := w > 0
		if !present {
			delete(lvUp.witness, pk)
		}
		switch was := containsSortedEdge(lvUp.edges, pk); {
		case was && !present:
			downs = append(downs, pk)
		case !was && present:
			ups = append(ups, pk)
		}
	}
	for _, e := range downs {
		lvUp.ev = append(lvUp.ev, topology.LinkEvent{Edge: e, Up: false})
	}
	for _, e := range ups {
		lvUp.ev = append(lvUp.ev, topology.LinkEvent{Edge: e, Up: true})
	}
	st.candList, st.moveBuf = cands, moves
	st.edgeCand, st.pairCand, st.downBuf, st.upBuf = ec, pairs, downs, ups
	return true
}

// buildPatchPrevHead is the patch engine's analogue of buildPrevHead:
// for a level-k node, the current physical carrier of the head it
// elected in the previous snapshot, translated through this tick's
// identity match (including logicals just re-inherited from a
// different carrier).
func (m *IncrementalMaintainer) buildPatchPrevHead(k int, lv *incLevel, blvl *Level, in *MaintainInput) func(int) int {
	prevH, prevIDs := in.PrevH, in.PrevIDs
	baseIDs := m.inc.baseIDs
	if k == 0 {
		plvl := prevH.Level(0)
		if plvl == nil || !plvl.Elected() {
			return func(int) int { return -1 }
		}
		cur := blvl.Nodes
		return func(u int) int {
			if hd := plvl.HeadOf(u); hd >= 0 && containsSortedInt(cur, hd) {
				return hd
			}
			return -1
		}
	}
	plvl := prevH.Level(k)
	if plvl == nil || !plvl.Elected() {
		return func(int) int { return -1 }
	}
	return func(u int) int {
		lu, ok := baseIDs.Logical(k, u)
		if !ok {
			return -1
		}
		// Previous carrier of u's logical: u itself, or the head the
		// logical was just released from.
		pu := -1
		if pl, ok := prevIDs.Logical(k, u); ok && pl == lu {
			pu = u
		} else if ph, ok := lv.relLog[lu]; ok {
			pu = ph
		}
		if pu < 0 {
			return -1
		}
		pw := plvl.HeadOf(pu)
		if pw < 0 {
			return -1
		}
		lw, ok := prevIDs.Logical(k, pw)
		if !ok {
			return -1
		}
		if w, ok := lv.carrier[lw]; ok {
			return w
		}
		return -1
	}
}

// dedupEdgesInPlace removes adjacent duplicates from sorted s.
func dedupEdgesInPlace(s []topology.EdgeKey) []topology.EdgeKey {
	if len(s) < 2 {
		return s
	}
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}
