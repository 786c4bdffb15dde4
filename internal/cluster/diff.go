package cluster

import "repro/internal/topology"

// MembershipChange records that level-0 node Node moved from level-k
// cluster Old to New between two snapshots (Old or New is -1 when the
// hierarchy did not reach level k in that snapshot).
type MembershipChange struct {
	Node  int
	Level int // k >= 1
	Old   int
	New   int
}

// StateDelta records the ALCA state change of a persistent clusterhead
// between snapshots, for the Fig. 3 unit-transition measurement.
type StateDelta struct {
	Level int // election level k (state of a level-(k+1) node)
	Node  int
	Old   int
	New   int
}

// Diff captures every hierarchy change between two consecutive
// snapshots, organized the way the paper's Sections 4 and 5 consume
// them.
type Diff struct {
	// Elections[k] lists nodes that became level-k nodes (k >= 1).
	Elections map[int][]int
	// Rejections[k] lists nodes that lost level-k status (k >= 1).
	Rejections map[int][]int
	// MigrationLinkEvents[k] lists level-k link changes (k >= 1) whose
	// endpoints are level-k nodes in both snapshots — the paper's
	// "cluster migration" events (i) and (ii).
	MigrationLinkEvents map[int][]topology.LinkEvent
	// StructuralLinkEvents[k] lists the remaining level-k link changes,
	// consequences of clusterhead election/rejection (events iii–vii).
	StructuralLinkEvents map[int][]topology.LinkEvent
	// Memberships lists per-node ancestor changes, ordered by
	// (level, node).
	Memberships []MembershipChange
	// StateDeltas lists ALCA state changes of persistent heads.
	StateDeltas []StateDelta
}

// ComputeDiff extracts all change events between hierarchy snapshots
// prev and next (same level-0 node population).
func ComputeDiff(prev, next *Hierarchy) *Diff {
	var s DiffScratch
	return ComputeDiffInto(nil, prev, next, &s)
}

// DiffScratch holds the reusable buffers of ComputeDiffInto: the
// edge-diff scratch, ancestor buffers, and pools for the per-level
// event slices harvested from recycled Diffs.
type DiffScratch struct {
	edges  topology.DiffScratch
	pc, nc []int // per level-0 node: its current-level ancestor
	ints   [][]int
	evs    [][]topology.LinkEvent
	emptyG *topology.Graph
}

func (s *DiffScratch) getInts() []int {
	if n := len(s.ints); n > 0 {
		out := s.ints[n-1]
		s.ints = s.ints[:n-1]
		return out[:0]
	}
	return nil
}

func (s *DiffScratch) getEvs() []topology.LinkEvent {
	if n := len(s.evs); n > 0 {
		out := s.evs[n-1]
		s.evs = s.evs[:n-1]
		return out[:0]
	}
	return nil
}

func (s *DiffScratch) empty() *topology.Graph {
	if s.emptyG == nil {
		s.emptyG = topology.NewGraph(1)
	}
	return s.emptyG
}

// reset prepares d for refilling, harvesting its slices into the
// scratch pools. d must no longer be referenced by any consumer.
func (s *DiffScratch) reset(d *Diff) {
	if d.Elections == nil {
		d.Elections = map[int][]int{}
		d.Rejections = map[int][]int{}
		d.MigrationLinkEvents = map[int][]topology.LinkEvent{}
		d.StructuralLinkEvents = map[int][]topology.LinkEvent{}
		return
	}
	//lint:ignore maprange slice harvesting; only pooled capacity depends on order
	for _, v := range d.Elections {
		s.ints = append(s.ints, v)
	}
	//lint:ignore maprange slice harvesting; only pooled capacity depends on order
	for _, v := range d.Rejections {
		s.ints = append(s.ints, v)
	}
	//lint:ignore maprange slice harvesting; only pooled capacity depends on order
	for _, v := range d.MigrationLinkEvents {
		s.evs = append(s.evs, v)
	}
	//lint:ignore maprange slice harvesting; only pooled capacity depends on order
	for _, v := range d.StructuralLinkEvents {
		s.evs = append(s.evs, v)
	}
	clear(d.Elections)
	clear(d.Rejections)
	clear(d.MigrationLinkEvents)
	clear(d.StructuralLinkEvents)
	d.Memberships = d.Memberships[:0]
	d.StateDeltas = d.StateDeltas[:0]
}

// ComputeDiffInto is ComputeDiff with caller-owned storage: d (nil =
// allocate fresh) is reset and refilled, drawing slice storage from
// the scratch. A reused d must be dead to all consumers — the diff is
// valid only until the next ComputeDiffInto call with the same d or s.
func ComputeDiffInto(d *Diff, prev, next *Hierarchy, s *DiffScratch) *Diff {
	if d == nil {
		d = &Diff{}
	}
	s.reset(d)
	maxL := len(prev.Levels)
	if len(next.Levels) > maxL {
		maxL = len(next.Levels)
	}

	// Node-set and link-set changes per level k >= 1. Level.Nodes is
	// sorted, so membership tests are binary searches and walking the
	// slices yields elections and rejections in ascending ID order.
	for k := 1; k < maxL; k++ {
		pl, nl := prev.Level(k), next.Level(k)
		pIs := func(id int) bool { return pl != nil && pl.IsNode(id) }
		nIs := func(id int) bool { return nl != nil && nl.IsNode(id) }
		el := s.getInts()
		for _, id := range levelNodes(nl) {
			if !pIs(id) {
				el = append(el, id)
			}
		}
		if len(el) > 0 {
			d.Elections[k] = el
		} else if el != nil {
			s.ints = append(s.ints, el)
		}
		rj := s.getInts()
		for _, id := range levelNodes(pl) {
			if !nIs(id) {
				rj = append(rj, id)
			}
		}
		if len(rj) > 0 {
			d.Rejections[k] = rj
		} else if rj != nil {
			s.ints = append(s.ints, rj)
		}

		// Link events.
		pg := levelGraph(pl)
		ng := levelGraph(nl)
		if pg == nil && ng == nil {
			continue
		}
		if pg == nil {
			pg = s.empty()
		}
		if ng == nil {
			ng = s.empty()
		}
		var mig, str []topology.LinkEvent
		for _, ev := range s.edges.Diff(pg, ng) {
			a, b := ev.Edge.Nodes()
			if pIs(a) && pIs(b) && nIs(a) && nIs(b) {
				if mig == nil {
					mig = s.getEvs()
				}
				mig = append(mig, ev)
			} else {
				if str == nil {
					str = s.getEvs()
				}
				str = append(str, ev)
			}
		}
		if len(mig) > 0 {
			d.MigrationLinkEvents[k] = mig
		}
		if len(str) > 0 {
			d.StructuralLinkEvents[k] = str
		}
	}

	// Per-node membership changes from ancestor chains, built one
	// level at a time: pc[j] and nc[j] hold the prev and next level-k
	// ancestors of the j-th level-0 node (-1 once a chain has ended).
	// Each level's nodes are walked in ascending order, so the changes
	// come out ordered by (level, node) with no sort.
	nodes := prev.Levels[0].Nodes
	s.pc = append(s.pc[:0], nodes...)
	s.nc = append(s.nc[:0], nodes...)
	for k := 1; k < maxL; k++ {
		for j, v := range nodes {
			old := ancestorUp(prev, k, s.pc[j])
			nw := ancestorUp(next, k, s.nc[j])
			s.pc[j], s.nc[j] = old, nw
			if old != nw {
				d.Memberships = append(d.Memberships, MembershipChange{
					Node: v, Level: k, Old: old, New: nw,
				})
			}
		}
	}

	// ALCA state deltas for heads persisting across snapshots, in
	// ascending head order (the previous level-(k+1) nodes are sorted).
	for k := 0; k+1 < len(prev.Levels) && k+1 < len(next.Levels); k++ {
		pl, nl := prev.Levels[k], next.Levels[k]
		if !pl.Elected() || !nl.Elected() {
			continue
		}
		for _, id := range prev.Levels[k+1].Nodes {
			ns := nl.StateOf(id)
			if ns < 0 {
				continue
			}
			if ps := pl.StateOf(id); ps != ns {
				d.StateDeltas = append(d.StateDeltas, StateDelta{
					Level: k, Node: id, Old: ps, New: ns,
				})
			}
		}
	}
	return d
}

// Empty reports whether the diff contains no changes at all.
func (d *Diff) Empty() bool {
	return len(d.Elections) == 0 && len(d.Rejections) == 0 &&
		len(d.MigrationLinkEvents) == 0 && len(d.StructuralLinkEvents) == 0 &&
		len(d.Memberships) == 0 && len(d.StateDeltas) == 0
}

// ancestorUp returns the level-k cluster of the level-(k-1) node u in
// h (u's step up an AppendAncestorChain walk), or -1 when u is -1 or h
// has no level k.
func ancestorUp(h *Hierarchy, k, u int) int {
	if u < 0 || k >= len(h.Levels) {
		return -1
	}
	return h.Levels[k-1].MemberOf(u)
}

func levelNodes(l *Level) []int {
	if l == nil {
		return nil
	}
	return l.Nodes
}

func levelGraph(l *Level) *topology.Graph {
	if l == nil {
		return nil
	}
	return l.Graph
}
