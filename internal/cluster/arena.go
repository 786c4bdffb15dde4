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

	// Per-build scratch, indexed by level-0 node ID. prevLog[v] spans
	// v's previous logical chain in chainBack and anc[v] is v's deepest
	// known ancestor in the snapshot under construction (-1 when it has
	// none). Each build writes the entries of its own level-0 nodes
	// before reading any, so neither needs a reset.
	idSpace   int
	prevLog   []chainSpan
	chainBack []uint64
	anc       []int32
	electMaps []map[uint64]uint64
	electUsed int
	counts    map[matchPair]int
	pairs     []matchPair
	usedPrev  map[uint64]bool
	carrier   map[uint64]int
	headBuf   []int
	edgeBuf   []topology.EdgeKey
}

// chainSpan locates one node's logical chain in Arena.chainBack.
type chainSpan struct{ start, end int32 }

type matchPair struct {
	prev uint64
	next int
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

// beginBuild resets the per-build scratch and sizes the node-indexed
// scratch for IDs below idSpace.
func (a *Arena) beginBuild(idSpace int) {
	a.idSpace = idSpace
	a.chainBack = a.chainBack[:0]
	a.electUsed = 0
	if len(a.prevLog) < idSpace {
		a.prevLog = make([]chainSpan, idSpace)
		a.anc = make([]int32, idSpace)
	}
}

// fillPrevLog records, for every level-0 node of the snapshot under
// construction (base), its logical ancestor chain in the previous
// snapshot (empty for nodes it did not cover).
func (a *Arena) fillPrevLog(base []int, prevH *Hierarchy, prevIDs *Identities) {
	for _, v := range base {
		a.prevLog[v] = chainSpan{}
	}
	if prevH == nil || prevIDs == nil {
		return
	}
	for _, v := range prevH.LevelNodes(0) {
		if v >= len(a.prevLog) {
			continue // outside the current ID space: never read
		}
		start := len(a.chainBack)
		a.chainBack = prevIDs.AppendChainOf(prevH, v, a.chainBack)
		a.prevLog[v] = chainSpan{start: int32(start), end: int32(len(a.chainBack))}
	}
}

// prevLogical returns the logical ID of v's level-k cluster in the
// previous snapshot, as recorded by fillPrevLog.
func (a *Arena) prevLogical(v, k int) (uint64, bool) {
	sp := a.prevLog[v]
	if int(sp.end-sp.start) < k {
		return 0, false
	}
	return a.chainBack[int(sp.start)+k-1], true
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

func (a *Arena) getElectMap() map[uint64]uint64 {
	if a == nil {
		return map[uint64]uint64{}
	}
	if a.electUsed < len(a.electMaps) {
		m := a.electMaps[a.electUsed]
		a.electUsed++
		clear(m)
		return m
	}
	m := map[uint64]uint64{}
	a.electMaps = append(a.electMaps, m)
	a.electUsed++
	return m
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

func (a *Arena) getCarrier() map[uint64]int {
	if a == nil {
		return map[uint64]int{}
	}
	if a.carrier == nil {
		a.carrier = map[uint64]int{}
	} else {
		clear(a.carrier)
	}
	return a.carrier
}

func (a *Arena) matchScratch() (map[matchPair]int, []matchPair, map[uint64]bool) {
	if a == nil {
		return map[matchPair]int{}, nil, map[uint64]bool{}
	}
	if a.counts == nil {
		a.counts = map[matchPair]int{}
		a.usedPrev = map[uint64]bool{}
	} else {
		clear(a.counts)
		clear(a.usedPrev)
	}
	a.pairs = a.pairs[:0]
	return a.counts, a.pairs, a.usedPrev
}
