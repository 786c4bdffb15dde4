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
// them. The four per-level fields are indexed by level and sized to
// the deeper of the two snapshots; row 0 is always empty.
type Diff struct {
	// Elections[k] lists nodes that became level-k nodes (k >= 1), in
	// ascending ID order.
	Elections [][]int
	// Rejections[k] lists nodes that lost level-k status (k >= 1), in
	// ascending ID order.
	Rejections [][]int
	// MigrationLinkEvents[k] lists level-k link changes (k >= 1) whose
	// endpoints are level-k nodes in both snapshots — the paper's
	// "cluster migration" events (i) and (ii).
	MigrationLinkEvents [][]topology.LinkEvent
	// StructuralLinkEvents[k] lists the remaining level-k link changes,
	// consequences of clusterhead election/rejection (events iii–vii).
	StructuralLinkEvents [][]topology.LinkEvent
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
// edge-diff scratch and the per-node ancestor buffers.
type DiffScratch struct {
	edges  topology.DiffScratch
	pc, nc []int // per level-0 node: its current-level ancestor
	emptyG *topology.Graph
}

func (s *DiffScratch) empty() *topology.Graph {
	if s.emptyG == nil {
		s.emptyG = topology.NewGraph(1)
	}
	return s.emptyG
}

// resetRows returns rows resized to n levels, each emptied in place:
// rows beyond the previous length reuse whatever capacity they held.
func resetRows[T any](rows [][]T, n int) [][]T {
	if cap(rows) < n {
		rows = append(rows[:cap(rows)], make([][]T, n-cap(rows))...)
	}
	rows = rows[:n]
	for k := range rows {
		rows[k] = rows[k][:0]
	}
	return rows
}

// ComputeDiffInto is ComputeDiff with caller-owned storage: d (nil =
// allocate fresh) is reset and refilled in place. A reused d must be
// dead to all consumers — the diff is valid only until the next
// ComputeDiffInto call with the same d or s.
func ComputeDiffInto(d *Diff, prev, next *Hierarchy, s *DiffScratch) *Diff {
	if d == nil {
		d = &Diff{}
	}
	maxL := max(len(prev.Levels), len(next.Levels))
	d.Elections = resetRows(d.Elections, maxL)
	d.Rejections = resetRows(d.Rejections, maxL)
	d.MigrationLinkEvents = resetRows(d.MigrationLinkEvents, maxL)
	d.StructuralLinkEvents = resetRows(d.StructuralLinkEvents, maxL)
	d.Memberships = d.Memberships[:0]
	d.StateDeltas = d.StateDeltas[:0]

	// Node-set and link-set changes per level k >= 1. Level.Nodes is
	// sorted, so membership tests are binary searches and walking the
	// slices yields elections and rejections in ascending ID order.
	for k := 1; k < maxL; k++ {
		pl, nl := prev.Level(k), next.Level(k)
		pIs := func(id int) bool { return pl != nil && pl.IsNode(id) }
		nIs := func(id int) bool { return nl != nil && nl.IsNode(id) }
		for _, id := range levelNodes(nl) {
			if !pIs(id) {
				d.Elections[k] = append(d.Elections[k], id)
			}
		}
		for _, id := range levelNodes(pl) {
			if !nIs(id) {
				d.Rejections[k] = append(d.Rejections[k], id)
			}
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
		for _, ev := range s.edges.Diff(pg, ng) {
			a, b := ev.Edge.Nodes()
			if pIs(a) && pIs(b) && nIs(a) && nIs(b) {
				d.MigrationLinkEvents[k] = append(d.MigrationLinkEvents[k], ev)
			} else {
				d.StructuralLinkEvents[k] = append(d.StructuralLinkEvents[k], ev)
			}
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
	for k := range d.Elections {
		if len(d.Elections[k]) > 0 || len(d.Rejections[k]) > 0 ||
			len(d.MigrationLinkEvents[k]) > 0 || len(d.StructuralLinkEvents[k]) > 0 {
			return false
		}
	}
	return len(d.Memberships) == 0 && len(d.StateDeltas) == 0
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
