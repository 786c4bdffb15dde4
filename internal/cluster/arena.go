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
// An Arena is not safe for concurrent use. A build handed a nil arena
// runs on a fresh one.
type Arena struct {
	levels   []*Level
	graphs   []*topology.Graph
	idRows   [][]uint64
	prevRows [][]int32
	ints     [][]int
	hiers    []*Hierarchy
	idents   []*Identities

	// Per-build scratch, indexed by node ID. anc[v] and prevAnc[v] are
	// level-0 node v's ancestor at the level being built, in the
	// snapshot under construction and in the previous snapshot (-1 when
	// it has none); each build writes the entries of its own level-0
	// nodes before reading any, so neither needs a reset. At the level
	// last matched, inherit is that level's prev row of the identities
	// under construction (inherit[nh] is the previous head whose
	// logical ID next head nh took) and heir[ph] the reverse (-1 when
	// none); heired lists the previous heads set in heir, so the next
	// level resets only those.
	idSpace int
	anc     []int32
	prevAnc []int32
	inherit []int32
	heir    []int32
	heired  []int32
	pairs   []uint64
	runs    []matchRun
	headBuf []int
	edgeBuf []topology.EdgeKey
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
	if ids != nil {
		// Identity rows hold entries for exactly the level-k nodes of
		// the paired snapshot.
		paired := h != nil && len(h.Levels) == len(ids.byLevel)+1
		for k := range ids.byLevel {
			var heads []int
			if paired {
				heads = h.Levels[k+1].Nodes
			}
			a.idRows = append(a.idRows, resetRow(ids.byLevel[k], heads, paired, noLogical))
			a.prevRows = append(a.prevRows, resetRow(ids.prev[k], heads, paired, -1))
		}
		ids.byLevel, ids.prev = ids.byLevel[:0], ids.prev[:0]
		ids.from = nil
		ids.gen++
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

// resetRow returns row emptied for the pool: with paired set only the
// entries of heads are reset to absent, otherwise all of them.
func resetRow[T any](row []T, heads []int, paired bool, absent T) []T {
	if paired {
		for _, hd := range heads {
			row[hd] = absent
		}
	} else {
		for i := range row {
			row[i] = absent
		}
	}
	return row[:0]
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
	a.heired = append(a.heired, int32(ph))
}

// resetHeir clears the heir entries inheritFrom set at the last level.
func (a *Arena) resetHeir() {
	for _, ph := range a.heired {
		a.heir[ph] = -1
	}
	a.heired = a.heired[:0]
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
	if len(a.hiers) == 0 {
		return &Hierarchy{}
	}
	h := a.hiers[len(a.hiers)-1]
	a.hiers = a.hiers[:len(a.hiers)-1]
	return h
}

func (a *Arena) getIdents() *Identities {
	if len(a.idents) == 0 {
		return &Identities{}
	}
	ids := a.idents[len(a.idents)-1]
	a.idents = a.idents[:len(a.idents)-1]
	return ids
}

func (a *Arena) getLevel() *Level {
	if len(a.levels) == 0 {
		return &Level{}
	}
	l := a.levels[len(a.levels)-1]
	a.levels = a.levels[:len(a.levels)-1]
	return l
}

func (a *Arena) getGraph(n int) *topology.Graph {
	if len(a.graphs) == 0 {
		return topology.NewGraph(n)
	}
	g := a.graphs[len(a.graphs)-1]
	a.graphs = a.graphs[:len(a.graphs)-1]
	g.Reset(n)
	return g
}

func (a *Arena) getInts() []int {
	if len(a.ints) == 0 {
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
	if s != nil {
		a.ints = append(a.ints, s)
	}
}

// getIDRow returns an identity row covering IDs below n with every
// entry reading as absent.
func (a *Arena) getIDRow(n int) []uint64 {
	var row []uint64
	if len(a.idRows) > 0 {
		row = a.idRows[len(a.idRows)-1]
		a.idRows = a.idRows[:len(a.idRows)-1]
	}
	return growFilled(row, n, noLogical)
}

// getPrevRow returns a prev row covering IDs below n with every entry
// reading as absent.
func (a *Arena) getPrevRow(n int) []int32 {
	var row []int32
	if len(a.prevRows) > 0 {
		row = a.prevRows[len(a.prevRows)-1]
		a.prevRows = a.prevRows[:len(a.prevRows)-1]
	}
	return growFilled(row, n, -1)
}

// getHeadBuf returns the reusable positional-heads buffer electors
// append into; hand the (possibly grown) slice back via putHeadBuf.
func (a *Arena) getHeadBuf() []int { return a.headBuf[:0] }

func (a *Arena) putHeadBuf(s []int) { a.headBuf = s }

// getEdgeBuf returns the reusable lifted-edge buffer of liftGraph; hand
// the (possibly grown) slice back via putEdgeBuf.
func (a *Arena) getEdgeBuf() []topology.EdgeKey { return a.edgeBuf[:0] }

func (a *Arena) putEdgeBuf(s []topology.EdgeKey) { a.edgeBuf = s }
