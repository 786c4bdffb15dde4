package lm

import (
	"repro/internal/cluster"
)

// Classification of cluster-reorganization triggers into the paper's
// seven event classes (§5.2). The classes are defined per level k with
// respect to level-k clusters:
//
//	I   — a new level-k link forms between clusters (cluster migration)
//	II  — a level-k link breaks between clusters (cluster migration)
//	III — a cluster gains level-k status because a migrating
//	      level-(k-1) cluster elected it
//	IV  — a cluster loses level-k status because a migrating
//	      level-(k-1) cluster stopped electing it
//	V   — recursive election: the elector itself was just elected
//	VI  — recursive rejection: the elector itself was just rejected
//	VII — a level-k neighbor is elected level-(k+1) clusterhead
//
// The paper shows each class's frequency is O(1/h_k) per cluster link;
// experiment E10 measures the class rates directly from these counts.

// EventClass enumerates the trigger classes.
type EventClass int

// Event classes i–vii of §5.2.
const (
	EventLinkUp        EventClass = iota // i
	EventLinkDown                        // ii
	EventElection                        // iii
	EventRejection                       // iv
	EventRecursiveElec                   // v
	EventRecursiveRej                    // vi
	EventNeighborElec                    // vii
	numEventClasses
)

// String names the class with the paper's numbering.
func (e EventClass) String() string {
	switch e {
	case EventLinkUp:
		return "i:link-up"
	case EventLinkDown:
		return "ii:link-down"
	case EventElection:
		return "iii:election"
	case EventRejection:
		return "iv:rejection"
	case EventRecursiveElec:
		return "v:recursive-election"
	case EventRecursiveRej:
		return "vi:recursive-rejection"
	case EventNeighborElec:
		return "vii:neighbor-election"
	default:
		return "unknown"
	}
}

// EventClasses lists all classes in paper order.
func EventClasses() []EventClass {
	out := make([]EventClass, numEventClasses)
	for i := range out {
		out[i] = EventClass(i)
	}
	return out
}

// ClassCounts holds, indexed by level k, the count of each event class
// at level k. Row 0 is always zero: every class concerns a level k >= 1.
type ClassCounts [][numEventClasses]int

// add increments one cell, growing c to reach level.
func (c *ClassCounts) add(level int, class EventClass, n int) {
	if n == 0 {
		return
	}
	if level >= len(*c) {
		*c = append(*c, make(ClassCounts, level+1-len(*c))...)
	}
	(*c)[level][class] += n
}

// Levels returns the levels that hold a nonzero count, ascending.
func (c ClassCounts) Levels() []int {
	var out []int
	for k, row := range c {
		if row != [numEventClasses]int{} {
			out = append(out, k)
		}
	}
	return out
}

// Total returns the sum over all levels and classes.
func (c ClassCounts) Total() int {
	t := 0
	for _, row := range c {
		for _, n := range row {
			t += n
		}
	}
	return t
}

// ClassifyReorg classifies one tick's reorganization triggers and adds
// them into c.
//
// Class levels follow the paper's convention: classes i/ii at level k
// concern level-k links; classes iii–vi at level k concern gain/loss
// of level-k status; class vii at level k concerns election of a
// level-(k+1) neighbor.
func ClassifyReorg(c *ClassCounts, prevH, nextH *cluster.Hierarchy, d *cluster.Diff) {
	// The diff records events for levels 1..len(d.Elections)-1.

	// i / ii: cluster-migration link events among persistent level-k
	// nodes where an endpoint is a level-(k+1) node (those are the
	// changes that alter level-(k+1) membership and so trigger
	// handoff).
	for k, evs := range d.MigrationLinkEvents {
		for _, ev := range evs {
			a, b := ev.Edge.Nodes()
			if ev.Up {
				if isLevelNode(nextH, k+1, a) || isLevelNode(nextH, k+1, b) {
					c.add(k, EventLinkUp, 1)
				}
			} else {
				if isLevelNode(prevH, k+1, a) || isLevelNode(prevH, k+1, b) {
					c.add(k, EventLinkDown, 1)
				}
			}
		}
	}

	// iii / v: elections. The election of v at level k is recursive
	// (v) when one of v's current electors was itself elected at level
	// k-1 in the same tick; otherwise it is migration-driven (iii).
	for k := 1; k < len(d.Elections); k++ {
		for _, v := range d.Elections[k] {
			if k >= 2 && electorIn(nextH, k-1, v, d.Elections[k-1]) {
				c.add(k, EventRecursiveElec, 1)
			} else {
				c.add(k, EventElection, 1)
			}
		}
	}

	// iv / vi: rejections, symmetric with the elector's own rejection.
	for k := 1; k < len(d.Rejections); k++ {
		for _, v := range d.Rejections[k] {
			if k >= 2 && electorIn(prevH, k-1, v, d.Rejections[k-1]) {
				c.add(k, EventRecursiveRej, 1)
			} else {
				c.add(k, EventRejection, 1)
			}
		}
	}

	// vii: each election at level k+1 is an event for every level-k
	// neighbor of the new clusterhead.
	for k1 := 2; k1 < len(d.Elections); k1++ {
		k := k1 - 1
		lvl := nextH.Level(k)
		if lvl == nil || lvl.Graph == nil {
			continue
		}
		for _, u := range d.Elections[k1] {
			c.add(k, EventNeighborElec, len(lvl.Graph.Neighbors(u)))
		}
	}
}

func isLevelNode(h *cluster.Hierarchy, k, id int) bool {
	lvl := h.Level(k)
	return lvl != nil && lvl.IsNode(id)
}

// electorIn reports whether any node electing v at election level
// eLevel (i.e. among level-eLevel nodes choosing their level-(eLevel+1)
// head) is in the ascending ID list ids.
func electorIn(h *cluster.Hierarchy, eLevel, v int, ids []int) bool {
	if len(ids) == 0 {
		return false
	}
	lvl := h.Level(eLevel)
	if lvl == nil || !lvl.Elected() {
		return false
	}
	for _, u := range ids {
		if u != v && lvl.HeadOf(u) == v {
			return true
		}
	}
	return false
}
