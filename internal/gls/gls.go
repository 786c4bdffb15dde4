// Package gls implements the Grid Location Service (Li, Jannotti,
// De Couto, Karger & Morris, MobiCom 2000) that the paper's §3.1
// describes and that CHLM adapts. It serves two purposes here:
// reproducing the paper's Fig. 2 (the grid hierarchy around a node)
// and acting as the comparison baseline for experiment E14.
//
// The world is a square recursively divided: level-1 squares have side
// l; a level-(i+1) square is the 2×2 group of level-i squares aligned
// to side l·2^i. A node v recruits, in each of the 3 sibling squares
// of its own square at every level, the node with the least ID greater
// than v (circular, Eq. 5) as its level-i location server.
package gls

import (
	"fmt"
	"sort"

	"repro/internal/geom"
)

// Grid fixes the grid geometry: the origin (lower-left corner of the
// indexed world), the level-1 cell side l, and the number of levels.
// The world side is l·2^(Levels-1); level indexes run 1..Levels.
type Grid struct {
	Origin geom.Vec
	Cell   float64
	Levels int
}

// NewGrid builds a grid whose world square covers the given disc with
// level-1 cells of side cell.
func NewGrid(region geom.Disc, cell float64) *Grid {
	if cell <= 0 {
		panic("gls: cell side must be positive")
	}
	min, side := region.BoundingSquare()
	levels := 1
	for cell*float64(int(1)<<(levels-1)) < side {
		levels++
	}
	return &Grid{Origin: min, Cell: cell, Levels: levels}
}

// SquareID identifies one grid square at a level.
type SquareID struct {
	Level  int
	Ix, Iy int
}

// String formats the square for diagnostics.
func (s SquareID) String() string {
	return fmt.Sprintf("L%d(%d,%d)", s.Level, s.Ix, s.Iy)
}

// side returns the square side at the given level.
func (g *Grid) side(level int) float64 {
	return g.Cell * float64(int(1)<<(level-1))
}

// SquareOf returns the level-i square containing p.
func (g *Grid) SquareOf(level int, p geom.Vec) SquareID {
	s := g.side(level)
	ix := int((p.X - g.Origin.X) / s)
	iy := int((p.Y - g.Origin.Y) / s)
	if ix < 0 {
		ix = 0
	}
	if iy < 0 {
		iy = 0
	}
	return SquareID{Level: level, Ix: ix, Iy: iy}
}

// Siblings returns the 3 level-i squares that share p's level-(i+1)
// square with p's own level-i square — the squares in which a node
// recruits its level-i location servers.
func (g *Grid) Siblings(level int, p geom.Vec) [3]SquareID {
	own := g.SquareOf(level, p)
	// The level-(i+1) square groups cells (2a, 2b)..(2a+1, 2b+1).
	baseX := own.Ix &^ 1
	baseY := own.Iy &^ 1
	var out [3]SquareID
	i := 0
	for dy := 0; dy < 2; dy++ {
		for dx := 0; dx < 2; dx++ {
			sq := SquareID{Level: level, Ix: baseX + dx, Iy: baseY + dy}
			if sq == own {
				continue
			}
			out[i] = sq
			i++
		}
	}
	return out
}

// Chain returns, for Fig. 2, the nested squares containing p at every
// level, innermost first.
func (g *Grid) Chain(p geom.Vec) []SquareID {
	out := make([]SquareID, 0, g.Levels)
	for level := 1; level <= g.Levels; level++ {
		out = append(out, g.SquareOf(level, p))
	}
	return out
}

// Index buckets nodes by grid square at every level for fast
// square-membership queries. All levels are materialized eagerly so
// that per-tick table rebuilds cost O(N·L·log) rather than O(N²).
type Index struct {
	grid *Grid
	// members[level-1][square] -> sorted node IDs
	members []map[SquareID][]int
	pos     []geom.Vec
}

// NewIndex builds the square index for the given positions.
func NewIndex(grid *Grid, pos []geom.Vec) *Index {
	idx := &Index{
		grid:    grid,
		members: make([]map[SquareID][]int, grid.Levels),
		pos:     pos,
	}
	for level := 1; level <= grid.Levels; level++ {
		m := map[SquareID][]int{}
		for v, p := range pos {
			sq := grid.SquareOf(level, p)
			m[sq] = append(m[sq], v)
		}
		//lint:ignore maprange each member slice is sorted independently; order cannot escape
		for _, ids := range m {
			sort.Ints(ids)
		}
		idx.members[level-1] = m
	}
	return idx
}

// NodesIn returns the sorted node IDs inside a square (any level).
// The returned slice is shared; do not mutate.
func (idx *Index) NodesIn(sq SquareID) []int {
	if sq.Level < 1 || sq.Level > idx.grid.Levels {
		return nil
	}
	return idx.members[sq.Level-1][sq]
}

// successor returns the node in candidates (sorted ascending) with
// least ID strictly greater than owner, wrapping circularly (Eq. 5);
// -1 when no other node exists. The owner itself is skipped.
func successor(owner, idSpace int, candidates []int) int {
	if len(candidates) == 0 {
		return -1
	}
	// First candidate > owner, else wrap to the smallest.
	i := sort.SearchInts(candidates, owner+1)
	for probe := 0; probe < len(candidates); probe++ {
		z := candidates[(i+probe)%len(candidates)]
		if z != owner {
			return z
		}
	}
	return -1
}

// ServerAssignment lists one node's location servers: Servers[i-1]
// holds up to 3 level-i servers (one per sibling square; -1 where a
// sibling square is empty).
type ServerAssignment struct {
	Owner   int
	Servers [][3]int
}

// ServersFor computes owner's full GLS server set.
func (idx *Index) ServersFor(owner, idSpace int) ServerAssignment {
	p := idx.pos[owner]
	sa := ServerAssignment{Owner: owner}
	for level := 1; level < idx.grid.Levels; level++ {
		sibs := idx.grid.Siblings(level, p)
		var row [3]int
		for i, sq := range sibs {
			row[i] = successor(owner, idSpace, idx.NodesIn(sq))
		}
		sa.Servers = append(sa.Servers, row)
	}
	return sa
}

// Table is the full GLS assignment for all nodes.
type Table struct {
	Assignments []ServerAssignment
}

// BuildTable computes every node's server set.
func BuildTable(idx *Index, n int) *Table {
	t := &Table{Assignments: make([]ServerAssignment, n)}
	for v := 0; v < n; v++ {
		t.Assignments[v] = idx.ServersFor(v, n)
	}
	return t
}

// Load returns, indexed by node ID, the number of entries each node
// serves (0 for a node serving none).
func (t *Table) Load() []int {
	load := make([]int, len(t.Assignments)) // servers are node IDs < n
	for _, sa := range t.Assignments {
		for _, row := range sa.Servers {
			for _, s := range row {
				if s >= 0 {
					load[s]++
				}
			}
		}
	}
	return load
}

// DiffCount counts changed (owner, level, slot) assignments between
// two tables and reports, via cost, the summed transfer cost of the
// changes using hops(oldServer -> newServer), hops(owner -> newServer)
// for fresh assignments.
func DiffCount(prev, next *Table, hops func(a, b int) int) (changed int, cost int) {
	n := len(next.Assignments)
	for v := 0; v < n; v++ {
		var prevRows [][3]int
		if v < len(prev.Assignments) {
			prevRows = prev.Assignments[v].Servers
		}
		nextRows := next.Assignments[v].Servers
		max := len(nextRows)
		if len(prevRows) > max {
			max = len(prevRows)
		}
		for i := 0; i < max; i++ {
			var po, no [3]int
			po = [3]int{-1, -1, -1}
			no = [3]int{-1, -1, -1}
			if i < len(prevRows) {
				po = prevRows[i]
			}
			if i < len(nextRows) {
				no = nextRows[i]
			}
			for s := 0; s < 3; s++ {
				if po[s] == no[s] {
					continue
				}
				changed++
				switch {
				case po[s] >= 0 && no[s] >= 0:
					cost += hops(po[s], no[s])
				case no[s] >= 0:
					cost += hops(v, no[s])
				}
			}
		}
	}
	return changed, cost
}

// QueryResult describes one resolved GLS location query.
type QueryResult struct {
	Found   bool
	Level   int // grid level at which the query resolved
	Packets int
}

// Query models a GLS location lookup: the querier probes, level by
// level, the node that would be d's location server within its own
// grid square (computable from d's ID alone, Eq. 5), succeeding at the
// first level where q's square coincides with d's — that square holds
// a server with d's entry. Probe and reply are costed with hop. This
// is a simplified cost model of the GLS spiral search: it preserves
// the level-by-level escalation and the distance proportionality.
func (idx *Index) Query(q, d, idSpace int, hop func(a, b int) int) QueryResult {
	if q == d {
		return QueryResult{Found: true, Level: 0}
	}
	pq, pd := idx.pos[q], idx.pos[d]
	packets := 0
	for i := 1; i <= idx.grid.Levels; i++ {
		sqQ := idx.grid.SquareOf(i, pq)
		cand := successor(d, idSpace, idx.NodesIn(sqQ))
		if cand >= 0 && cand != q {
			packets += hop(q, cand) + hop(cand, q)
		}
		if sqQ == idx.grid.SquareOf(i, pd) {
			return QueryResult{Found: true, Level: i, Packets: packets}
		}
	}
	return QueryResult{Found: false, Packets: packets}
}
