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
// and assigns logical identities level by level, recording in them
// which cluster of prevH each cluster continues (Identities.Prev).
// prevH/prevIDs may be nil for the first snapshot. It is the one place
// that decides cluster succession; the elector's hysteresis, the LM
// update and the measurements all read its answer.
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
	base := append(a.getInts(), nodes...)
	slices.Sort(base)
	a.beginBuild(idSpace, base, prevH, prevIDs)

	h := a.getHier()
	h.Reach = cfg.Reach
	ids := a.getIdents()
	if prevIDs != nil {
		ids.from, ids.fromGen = prevIDs, prevIDs.gen
	}

	curNodes := base
	curGraph := g0
	for k := 0; ; k++ {
		lvl := a.getLevel()
		lvl.K, lvl.Nodes, lvl.Graph = k, curNodes, curGraph
		h.Levels = append(h.Levels, lvl)

		if k >= 1 {
			// Identity-match the freshly formed level-k clusters.
			matchLevel(a, tr, k, curNodes, base, prevIDs, ids)
		}

		if len(curNodes) <= 1 || k >= cfg.MaxLevels {
			break
		}
		if cfg.ForceTopAt > 0 && k >= 1 && len(curNodes) <= cfg.ForceTopAt {
			forceTop(h, lvl, idSpace, a)
			// Identity for the forced top level.
			a.advanceAnc(base, lvl, prevH.Level(k))
			matchLevel(a, tr, k+1, h.Levels[k+1].Nodes, base, prevIDs, ids)
			break
		}

		prevHead := buildPrevHead(a, k, curNodes, prevH)
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
		a.advanceAnc(base, lvl, prevH.Level(k))
		curGraph = liftGraph(curGraph, lvl, nextNodes, idSpace, a)
		curNodes = nextNodes
	}
	return h, ids
}

// buildPrevHead returns the elector-memory closure for level k: given
// a level-k node (cluster), the current physical node that carries the
// logical identity of the head it elected in the previous snapshot, or
// -1 when there is none. At k >= 1 that is the heir of the previous
// head elected by u's own previous head, read off the level's matching
// (a.inherit, a.heir), so the closure is valid only until the next
// level is matched.
func buildPrevHead(a *Arena, k int, curNodes []int, prevH *Hierarchy) func(int) int {
	pl := prevH.Level(k)
	if pl == nil || !pl.Elected() {
		return func(int) int { return -1 }
	}
	if k == 0 {
		// Level-0 identities are the node IDs themselves, but the nodes
		// are only persistent while they remain covered: a previous head
		// that churned out or drifted off the giant component has no
		// current carrier and must report -1, or a grace-period elector
		// (DebouncedLCA) would keep electing the departed node and
		// promote a head that is not a level-0 node at all.
		return func(u int) int {
			if hd := pl.HeadOf(u); hd >= 0 {
				if _, live := slices.BinarySearch(curNodes, hd); live {
					return hd
				}
			}
			return -1
		}
	}
	return func(u int) int {
		if ph := a.inherit[u]; ph >= 0 {
			return a.heirOf(pl.HeadOf(int(ph)))
		}
		return -1
	}
}

// matchLevel assigns logical IDs to the level-k clusters of the
// snapshot under construction by maximal level-0 overlap with the
// previous snapshot's clusters (greedy, largest overlap first, then
// smaller previous logical ID, then smaller next head). Each level-0
// node of base counts once, pairing its previous level-k head
// (a.prevAnc) with its new one (a.anc); a logical ID belongs to one
// head per level, so pairs of heads count exactly what pairs of
// logical IDs would. Each match is recorded in a.inherit, which is the
// level's prev row of ids, and in a.heir. Clusters inheriting no
// identity receive fresh IDs from tr. Under Passthrough every head
// keeps its own ID and inherits from itself when it headed a level-k
// cluster before. The level's ID and prev rows come from the arena and
// are appended to ids.
func matchLevel(a *Arena, tr *IdentityTracker, k int, newHeads, base []int, prevIDs, ids *Identities) {
	row := a.getIDRow(a.idSpace)
	a.resetHeir()
	a.inherit = a.getPrevRow(a.idSpace)
	ids.byLevel = append(ids.byLevel, row)
	ids.prev = append(ids.prev, a.inherit)
	if tr.Passthrough {
		for _, h := range newHeads {
			row[h] = uint64(h)
			if _, ok := prevIDs.Logical(k, h); ok {
				a.inheritFrom(h, h)
			}
		}
		return
	}
	keys := a.pairs[:0]
	for _, v := range base {
		if ph, nh := a.prevAnc[v], a.anc[v]; ph >= 0 && nh >= 0 {
			keys = append(keys, uint64(ph)<<32|uint64(nh))
		}
	}
	slices.Sort(keys)
	runs := a.runs[:0]
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		ph, nh := int32(keys[i]>>32), int32(uint32(keys[i]))
		if q, ok := prevIDs.Logical(k, int(ph)); ok {
			runs = append(runs, matchRun{count: j - i, prev: q, ph: ph, nh: nh})
		}
		i = j
	}
	slices.SortFunc(runs, func(x, y matchRun) int {
		switch {
		case x.count != y.count:
			return y.count - x.count
		case x.prev != y.prev:
			if x.prev < y.prev {
				return -1
			}
			return 1
		default:
			return int(x.nh - y.nh)
		}
	})
	a.pairs, a.runs = keys, runs // return grown capacity to the arena
	for _, r := range runs {
		if a.heir[r.ph] >= 0 || row[r.nh] != noLogical {
			continue
		}
		row[r.nh] = r.prev
		a.inheritFrom(int(r.nh), int(r.ph))
	}
	for _, h := range newHeads {
		if row[h] == noLogical {
			row[h] = tr.alloc(h)
		}
	}
}
