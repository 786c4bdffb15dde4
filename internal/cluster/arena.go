package cluster

import "repro/internal/topology"

// Arena recycles the storage of retired hierarchy snapshots so that
// steady-state rebuilds allocate (almost) nothing. The simulation loop
// keeps two snapshots alive — the one being built and its predecessor,
// which feeds identity matching and diffing — so the snapshot from two
// ticks ago is provably dead and its levels, graphs, identity rows and
// node slices can be cannibalized. Usage:
//
//	arena.Recycle(retiredH, retiredIDs) // snapshot from tick t-2
//	h, ids := BuildWithIdentitiesArena(arena, ...)
//
// An Arena is not safe for concurrent use. Recycle and the storage
// getters are nil-safe, a nil *Arena degrading to fresh allocation; a
// build handed a nil arena runs on a fresh one.
type Arena struct {
	levels []*Level
	graphs []*topology.Graph
	idRows [][]uint64
	ints   [][]int
	hiers  []*Hierarchy
	idents []*Identities

	// Per-build scratch, indexed by node ID. anc[v] and prevAnc[v] are
	// level-0 node v's ancestor at the level being built, in the
	// snapshot under construction and in the previous snapshot (-1 when
	// it has none); each build writes the entries of its own level-0
	// nodes before reading any, so neither needs a reset. At the level
	// last matched, inherit[nh] is the previous head whose logical ID
	// next head nh took and heir[ph] the reverse (-1 when none);
	// inherited lists the next heads set, so the next level resets only
	// those.
	idSpace   int
	anc       []int32
	prevAnc   []int32
	inherit   []int32
	heir      []int32
	inherited []int32
	pairs     []uint64
	runs      []matchRun
	headBuf   []int
	edgeBuf   []topology.EdgeKey
}

// matchRun is one (previous head, next head) pair of matchLevel with
// the number of level-0 nodes it shares and the previous head's
// logical ID.
type matchRun struct {
	count  int
	prev   uint64
	ph, nh int32
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Recycle harvests the storage of a retired snapshot. The snapshot
// must no longer be referenced by anyone: its dense entries are reset
// and its slices will be overwritten by the next build. Only the
// entries the snapshot's node lists name are reset, so the cost tracks
// the snapshot, not the ID space. The level-0 graph is NOT harvested —
// it is owned by the caller's graph double-buffer.
func (a *Arena) Recycle(h *Hierarchy, ids *Identities) {
	if a == nil {
		return
	}
	if ids != nil {
		// Identity rows hold entries for exactly the level-k nodes of
		// the paired snapshot.
		paired := h != nil && len(h.Levels) == len(ids.byLevel)+1
		for k, row := range ids.byLevel {
			if paired {
				for _, hd := range h.Levels[k+1].Nodes {
					row[hd] = noLogical
				}
			} else {
				for i := range row {
					row[i] = noLogical
				}
			}
			a.idRows = append(a.idRows, row[:0])
		}
		ids.byLevel = ids.byLevel[:0]
		a.idents = append(a.idents, ids)
	}
	if h != nil {
		for k, lvl := range h.Levels {
			if k+1 < len(h.Levels) {
				lvl.resetElection(h.Levels[k+1].Nodes, a)
			}
			if lvl.Nodes != nil {
				a.ints = append(a.ints, lvl.Nodes)
				lvl.Nodes = nil
			}
			if k > 0 && lvl.Graph != nil {
				a.graphs = append(a.graphs, lvl.Graph)
			}
			lvl.Graph = nil
			a.levels = append(a.levels, lvl)
		}
		h.Levels = h.Levels[:0]
		h.ForcedTop = false
		a.hiers = append(a.hiers, h)
	}
}

// beginBuild sizes the node-indexed scratch for IDs below idSpace and
// for the heads of prevH (nil-safe), and starts every level-0 node of
// base at itself in both snapshots (at -1 in the previous one when
// prevH or prevIDs is nil).
func (a *Arena) beginBuild(idSpace int, base []int, prevH *Hierarchy, prevIDs *Identities) {
	a.idSpace = idSpace
	if len(a.anc) < idSpace {
		a.anc = make([]int32, idSpace)
		a.prevAnc = make([]int32, idSpace)
	}
	n := idSpace
	if prevH != nil {
		n = max(n, prevH.idSpace())
	}
	a.inherit = growFilled(a.inherit, n, -1)
	a.heir = growFilled(a.heir, n, -1)
	tracked := prevH != nil && prevIDs != nil
	for _, v := range base {
		a.anc[v], a.prevAnc[v] = int32(v), -1
		if tracked {
			a.prevAnc[v] = int32(v)
		}
	}
}

// advanceAnc moves every level-0 node's ancestors in a.anc and
// a.prevAnc up through lvl's and prevLvl's elections (to -1 where the
// level holds no cluster for it). prevLvl is read only for nodes with
// a previous ancestor, so it may be nil when none has one.
func (a *Arena) advanceAnc(base []int, lvl, prevLvl *Level) {
	for _, v := range base {
		if an := a.anc[v]; an >= 0 {
			a.anc[v] = int32(lvl.MemberOf(int(an)))
		}
		if pa := a.prevAnc[v]; pa >= 0 {
			a.prevAnc[v] = int32(prevLvl.MemberOf(int(pa)))
		}
	}
}

// inheritFrom records that next head nh took previous head ph's
// logical ID at the level being matched.
func (a *Arena) inheritFrom(nh, ph int) {
	a.inherit[nh], a.heir[ph] = int32(ph), int32(nh)
	a.inherited = append(a.inherited, int32(nh))
}

// resetInherit clears the entries inheritFrom set at the last level.
func (a *Arena) resetInherit() {
	for _, nh := range a.inherited {
		a.heir[a.inherit[nh]], a.inherit[nh] = -1, -1
	}
	a.inherited = a.inherited[:0]
}

// heirOf returns the next head that took previous head ph's logical ID
// at the level last matched, or -1.
func (a *Arena) heirOf(ph int) int {
	if uint(ph) >= uint(len(a.heir)) {
		return -1
	}
	return int(a.heir[ph])
}

func (a *Arena) getHier() *Hierarchy {
	if a == nil || len(a.hiers) == 0 {
		return &Hierarchy{}
	}
	h := a.hiers[len(a.hiers)-1]
	a.hiers = a.hiers[:len(a.hiers)-1]
	return h
}

func (a *Arena) getIdents() *Identities {
	if a == nil || len(a.idents) == 0 {
		return &Identities{}
	}
	ids := a.idents[len(a.idents)-1]
	a.idents = a.idents[:len(a.idents)-1]
	return ids
}

func (a *Arena) getLevel() *Level {
	if a == nil || len(a.levels) == 0 {
		return &Level{}
	}
	l := a.levels[len(a.levels)-1]
	a.levels = a.levels[:len(a.levels)-1]
	return l
}

func (a *Arena) getGraph(n int) *topology.Graph {
	if a == nil || len(a.graphs) == 0 {
		return topology.NewGraph(n)
	}
	g := a.graphs[len(a.graphs)-1]
	a.graphs = a.graphs[:len(a.graphs)-1]
	g.Reset(n)
	return g
}

func (a *Arena) getInts() []int {
	if a == nil || len(a.ints) == 0 {
		return nil
	}
	s := a.ints[len(a.ints)-1]
	a.ints = a.ints[:len(a.ints)-1]
	return s[:0]
}

// putInts returns a slice's backing capacity to the pool (the inverse
// of getInts, for callers that release individual slices outside a full
// Recycle).
func (a *Arena) putInts(s []int) {
	if a == nil || s == nil {
		return
	}
	a.ints = append(a.ints, s)
}

// getIDRow returns an identity row covering IDs below n with every
// entry reading as absent.
func (a *Arena) getIDRow(n int) []uint64 {
	var row []uint64
	if a != nil && len(a.idRows) > 0 {
		row = a.idRows[len(a.idRows)-1]
		a.idRows = a.idRows[:len(a.idRows)-1]
	}
	return growFilled(row, n, noLogical)
}

// getHeadBuf returns the reusable positional-heads buffer electors
// append into; hand the (possibly grown) slice back via putHeadBuf.
func (a *Arena) getHeadBuf() []int {
	if a == nil {
		return nil
	}
	return a.headBuf[:0]
}

func (a *Arena) putHeadBuf(s []int) {
	if a != nil {
		a.headBuf = s
	}
}

// getEdgeBuf returns the reusable lifted-edge buffer of liftGraph; hand
// the (possibly grown) slice back via putEdgeBuf.
func (a *Arena) getEdgeBuf() []topology.EdgeKey {
	if a == nil {
		return nil
	}
	return a.edgeBuf[:0]
}

func (a *Arena) putEdgeBuf(s []topology.EdgeKey) {
	if a != nil {
		a.edgeBuf = s
	}
}
