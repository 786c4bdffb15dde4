package cluster

import (
	"slices"

	"repro/internal/topology"
)

// Tracked building: hierarchy construction interleaved with identity
// matching, so that election hysteresis survives clusterhead relabels.
//
// A hysteresis elector (StickyLCA) keys its memory on the head a node
// elected previously. At levels >= 1 the "nodes" are clusters whose
// physical name (head ID) churns; if memory were keyed on names, every
// relabel below would erase the affiliation and re-trigger argmax
// elections — the instability cascade that destroys the paper's
// Θ(1/h_k) event frequencies. BuildWithIdentities therefore matches
// each level's clusters to the previous snapshot (logical IDs) before
// electing that level, and translates "the head u elected last tick"
// through logical inheritance into this tick's physical node.
//
// MemorylessLCA ignores the memory entirely, giving the paper's
// literal re-election model; the A1 ablation contrasts the two.

// BuildWithIdentities builds the hierarchy for the current topology
// and assigns logical identities level by level. prevH/prevIDs may be
// nil for the first snapshot. The result is equivalent to Build
// followed by identity matching, except that the elector's hysteresis
// is fed relabel-proof previous-head information.
func BuildWithIdentities(
	g0 *topology.Graph,
	nodes []int,
	cfg Config,
	prevH *Hierarchy,
	prevIDs *Identities,
	tr *IdentityTracker,
	now float64,
) (*Hierarchy, *Identities) {
	return BuildWithIdentitiesArena(nil, g0, nodes, cfg, prevH, prevIDs, tr, now)
}

// BuildWithIdentitiesArena is BuildWithIdentities drawing all snapshot
// storage from the arena (nil arena = allocate fresh, identical to
// BuildWithIdentities). The returned hierarchy and identities own
// arena-recycled storage; hand them back via Arena.Recycle once they
// are two generations old.
func BuildWithIdentitiesArena(
	a *Arena,
	g0 *topology.Graph,
	nodes []int,
	cfg Config,
	prevH *Hierarchy,
	prevIDs *Identities,
	tr *IdentityTracker,
	now float64,
) (*Hierarchy, *Identities) {
	cfg = cfg.withDefaults()
	if a == nil {
		a = NewArena() // fresh storage, dropped with the build
	}
	idSpace := g0.IDSpace()
	a.beginBuild(idSpace)
	base := append(a.getInts(), nodes...)
	slices.Sort(base)

	// Previous logical chains per level-0 node, and previous elections
	// in logical space: prevElect[k][logical_u] = logical head u
	// elected at level k (k >= 1).
	a.fillPrevLog(base, prevH, prevIDs)
	prevElect := map[int]map[uint64]uint64{}
	if prevH != nil && prevIDs != nil {
		for k := 1; k <= prevH.L(); k++ {
			lvl := prevH.Level(k)
			if lvl == nil || !lvl.Elected() {
				continue
			}
			m := a.getElectMap()
			for _, u := range lvl.Nodes {
				lu, okU := prevIDs.Logical(k, u)
				lw, okW := prevIDs.Logical(k, lvl.HeadOf(u))
				if okU && okW {
					m[lu] = lw
				}
			}
			prevElect[k] = m
		}
	}

	h := a.getHier()
	h.Reach = cfg.Reach
	ids := a.getIdents()
	// a.anc holds each level-0 node's deepest known ancestor; it is
	// advanced one level per election round.
	for _, v := range base {
		a.anc[v] = int32(v)
	}

	curNodes := base
	curGraph := g0
	for k := 0; ; k++ {
		lvl := a.getLevel()
		lvl.K, lvl.Nodes, lvl.Graph = k, curNodes, curGraph
		h.Levels = append(h.Levels, lvl)

		if k >= 1 {
			// Identity-match the freshly formed level-k clusters.
			ids.byLevel = append(ids.byLevel, matchLevel(a, tr, k, curNodes, base))
		}

		if len(curNodes) <= 1 || k >= cfg.MaxLevels {
			break
		}
		if cfg.ForceTopAt > 0 && k >= 1 && len(curNodes) <= cfg.ForceTopAt {
			forceTop(h, lvl, idSpace, a)
			// Identity for the forced top level.
			a.advanceAnc(base, lvl)
			ids.byLevel = append(ids.byLevel, matchLevel(a, tr, k+1, h.Levels[k+1].Nodes, base))
			break
		}

		prevHead := buildPrevHead(a, k, curNodes, ids, prevH, prevElect)
		heads := a.getHeadBuf()
		if se, ok := cfg.Elector.(StatefulElector); ok {
			logicalOf := func(u int) uint64 {
				if k == 0 {
					return uint64(u)
				}
				if l, ok := ids.Logical(k, u); ok {
					return l
				}
				return uint64(u)
			}
			heads = se.ElectTracked(heads, &ElectCtx{
				Time: now, Level: k, Nodes: curNodes, Graph: curGraph,
				PrevHead: prevHead, LogicalOf: logicalOf,
			})
		} else {
			heads = cfg.Elector.Elect(heads, curNodes, curGraph, prevHead)
		}
		nextNodes := elect(lvl, heads, idSpace, a)
		a.putHeadBuf(heads)

		if len(nextNodes) == len(curNodes) {
			// No compression: drop trivial election data and stop.
			lvl.resetElection(nextNodes, a)
			a.putInts(nextNodes)
			break
		}
		a.advanceAnc(base, lvl)
		curGraph = liftGraph(curGraph, lvl, idSpace, a)
		curNodes = nextNodes
	}
	return h, ids
}

// advanceAnc moves every level-0 node's ancestor in a.anc up through
// lvl's election (to -1 where lvl holds no cluster for it).
func (a *Arena) advanceAnc(base []int, lvl *Level) {
	for _, v := range base {
		if an := a.anc[v]; an >= 0 {
			a.anc[v] = int32(lvl.MemberOf(int(an)))
		}
	}
}

// buildPrevHead returns the elector-memory closure for level k: given
// a level-k node (cluster), the current physical node that carries the
// logical identity of the head it elected in the previous snapshot, or
// -1 when there is none. The closure is valid only for the duration of
// the level's election (it may capture arena scratch).
func buildPrevHead(
	a *Arena,
	k int,
	curNodes []int,
	ids *Identities,
	prevH *Hierarchy,
	prevElect map[int]map[uint64]uint64,
) func(int) int {
	if k == 0 {
		// Level-0 identities are the node IDs themselves, but the nodes
		// are only persistent while they remain covered: a previous head
		// that churned out or drifted off the giant component has no
		// current carrier and must report -1, or a grace-period elector
		// (DebouncedLCA) would keep electing the departed node and
		// promote a head that is not a level-0 node at all.
		if prevH == nil || prevH.Level(0) == nil || !prevH.Level(0).Elected() {
			return func(int) int { return -1 }
		}
		pl0 := prevH.Level(0)
		return func(u int) int {
			if hd := pl0.HeadOf(u); hd >= 0 {
				if _, live := slices.BinarySearch(curNodes, hd); live {
					return hd
				}
			}
			return -1
		}
	}
	elect := prevElect[k]
	if len(elect) == 0 {
		return func(int) int { return -1 }
	}
	// Reverse map: logical level-k ID -> current physical node.
	carrier := a.getCarrier()
	for _, u := range curNodes {
		if l, ok := ids.Logical(k, u); ok {
			carrier[l] = u
		}
	}
	return func(u int) int {
		lu, ok := ids.Logical(k, u)
		if !ok {
			return -1
		}
		lw, ok := elect[lu]
		if !ok {
			return -1
		}
		if w, ok := carrier[lw]; ok {
			return w
		}
		return -1
	}
}

// matchLevel assigns logical IDs to the level-k clusters of the
// snapshot under construction by maximal level-0 overlap with the
// previous snapshot's logical clusters (greedy, largest overlap first,
// deterministic tie-breaks). Each level-0 node of base counts once,
// pairing its previous level-k logical (a.prevLog) with its new
// level-k ancestor (a.anc). Clusters inheriting no identity receive
// fresh IDs from tr. The result row comes from the arena.
func matchLevel(a *Arena, tr *IdentityTracker, k int, newHeads, base []int) []uint64 {
	row := a.getIDRow(a.idSpace)
	if tr.Passthrough {
		for _, h := range newHeads {
			row[h] = uint64(h)
		}
		return row
	}
	counts, pairs, usedPrev := a.matchScratch()
	for _, v := range base {
		nh := a.anc[v]
		if nh < 0 {
			continue
		}
		if q, ok := a.prevLogical(v, k); ok {
			counts[matchPair{prev: q, next: int(nh)}]++
		}
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
	a.pairs = pairs // return grown capacity to the arena
	for _, p := range pairs {
		if usedPrev[p.prev] || row[p.next] != noLogical {
			continue
		}
		row[p.next] = p.prev
		usedPrev[p.prev] = true
	}
	for _, h := range newHeads {
		if row[h] == noLogical {
			row[h] = tr.alloc(h)
		}
	}
	return row
}
