package cluster

import (
	"slices"

	"repro/internal/topology"
)

// Arena recycles the storage of retired hierarchy snapshots so that
// steady-state rebuilds allocate (almost) nothing. The simulation loop
// keeps two snapshots alive — the one being built and its predecessor,
// which feeds identity matching and diffing — so the snapshot from two
// ticks ago is provably dead and its levels, graphs, identity maps and
// node slices can be cannibalized. Usage:
//
//	arena.Recycle(retiredH, retiredIDs) // snapshot from tick t-2
//	h, ids := BuildWithIdentitiesArena(arena, ...)
//
// An Arena is not safe for concurrent use. All methods are nil-safe:
// a nil *Arena degrades to fresh allocation everywhere.
type Arena struct {
	levels []*Level
	graphs []*topology.Graph
	idMaps []map[int]uint64
	ints   [][]int
	hiers  []*Hierarchy
	idents []*Identities

	// Per-build scratch, reset at the start of each build.
	prevLog   map[int][]uint64
	chainBack []uint64
	chainSpan []chainSpan
	electMaps []map[uint64]uint64
	electUsed int
	anc       map[int]int
	counts    map[matchPair]int
	pairs     []matchPair
	usedPrev  map[uint64]bool
	carrier   map[uint64]int
	headSet   map[int]bool
	headBuf   []int
	edgeBuf   []topology.EdgeKey
}

type chainSpan struct {
	v          int
	start, end int
}

type matchPair struct {
	prev uint64
	next int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Recycle harvests the storage of a retired snapshot. The snapshot
// must no longer be referenced by anyone: its maps are cleared and its
// slices will be overwritten by the next build. The level-0 graph is
// NOT harvested — it is owned by the caller's graph double-buffer.
//
//manet:hotpath
func (a *Arena) Recycle(h *Hierarchy, ids *Identities) {
	if a == nil {
		return
	}
	if h != nil {
		for k, lvl := range h.Levels {
			if lvl.Nodes != nil {
				a.ints = append(a.ints, lvl.Nodes)
				lvl.Nodes = nil
			}
			if k > 0 && lvl.Graph != nil {
				a.graphs = append(a.graphs, lvl.Graph)
			}
			lvl.Graph = nil
			if lvl.Head != nil {
				clear(lvl.Head)
			}
			if lvl.Members != nil {
				//lint:ignore maprange slice harvesting; only pooled capacity depends on order
				for _, s := range lvl.Members {
					a.ints = append(a.ints, s)
				}
				clear(lvl.Members)
			}
			if lvl.Member != nil {
				clear(lvl.Member)
			}
			if lvl.State != nil {
				clear(lvl.State)
			}
			a.levels = append(a.levels, lvl)
		}
		h.Levels = h.Levels[:0]
		h.ForcedTop = false
		a.hiers = append(a.hiers, h)
	}
	if ids != nil {
		for _, m := range ids.byLevel {
			clear(m)
			a.idMaps = append(a.idMaps, m)
		}
		ids.byLevel = ids.byLevel[:0]
		a.idents = append(a.idents, ids)
	}
}

// beginBuild resets the per-build scratch.
func (a *Arena) beginBuild() {
	if a == nil {
		return
	}
	if a.prevLog == nil {
		a.prevLog = map[int][]uint64{}
	} else {
		clear(a.prevLog)
	}
	a.chainBack = a.chainBack[:0]
	a.chainSpan = a.chainSpan[:0]
	a.electUsed = 0
	if a.anc == nil {
		a.anc = map[int]int{}
	} else {
		clear(a.anc)
	}
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

func (a *Arena) getIDMap(sizeHint int) map[int]uint64 {
	if a == nil || len(a.idMaps) == 0 {
		return make(map[int]uint64, sizeHint)
	}
	m := a.idMaps[len(a.idMaps)-1]
	a.idMaps = a.idMaps[:len(a.idMaps)-1]
	return m
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

//manet:hotpath
func (a *Arena) getHeadSet(sizeHint int) map[int]bool {
	if a == nil {
		//lint:ignore hotpath arena-less builds are the cold, allocate-fresh path
		return make(map[int]bool, sizeHint)
	}
	if a.headSet == nil {
		//lint:ignore hotpath warm-up: the head set is allocated once and reused
		a.headSet = make(map[int]bool, sizeHint)
	} else {
		clear(a.headSet)
	}
	return a.headSet
}

// getHeadBuf returns the reusable positional-heads buffer electors
// append into; hand the (possibly grown) slice back via putHeadBuf.
//
//manet:hotpath
func (a *Arena) getHeadBuf() []int {
	if a == nil {
		return nil
	}
	return a.headBuf[:0]
}

//manet:hotpath
func (a *Arena) putHeadBuf(s []int) {
	if a != nil {
		a.headBuf = s
	}
}

// getEdgeBuf returns the reusable lifted-edge buffer of liftGraph; hand
// the (possibly grown) slice back via putEdgeBuf.
//
//manet:hotpath
func (a *Arena) getEdgeBuf() []topology.EdgeKey {
	if a == nil {
		return nil
	}
	return a.edgeBuf[:0]
}

//manet:hotpath
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

// appendKeysSorted appends m's keys to dst in ascending order.
func appendKeysSorted(dst []int, m map[int][]int) []int {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}
