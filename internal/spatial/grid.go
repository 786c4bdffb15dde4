// Package spatial provides a uniform-grid spatial index over node
// positions. With cell side equal to the transmission radius R_TX, the
// neighbors of a node within R_TX are all found in its 3×3 cell
// neighborhood, so a full link scan over |V| nodes costs O(|V|·d̄)
// instead of O(|V|²).
package spatial

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// Grid is a uniform spatial hash of node IDs (0..n-1) to cells.
// Positions are supplied by the caller on every operation so the grid
// never holds stale coordinates.
type Grid struct {
	min      geom.Vec // lower-left corner of the indexed square
	cell     float64  // cell side length
	cols     int
	rows     int
	cells    [][]int32 // cell -> node IDs
	location []int32   // node -> cell index, -1 if absent
}

// NewGrid creates a grid covering the square with lower corner min and
// the given side, using cells of side cell, sized for capacity nodes.
func NewGrid(min geom.Vec, side, cell float64, capacity int) *Grid {
	if side <= 0 || cell <= 0 {
		panic("spatial: side and cell must be positive")
	}
	cols := int(side/cell) + 1
	g := &Grid{
		min:      min,
		cell:     cell,
		cols:     cols,
		rows:     cols,
		cells:    make([][]int32, cols*cols),
		location: make([]int32, capacity),
	}
	for i := range g.location {
		g.location[i] = -1
	}
	return g
}

// NewGridForDisc sizes a grid to cover disc with cells of side cell.
func NewGridForDisc(d geom.Disc, cell float64, capacity int) *Grid {
	min, side := d.BoundingSquare()
	return NewGrid(min, side, cell, capacity)
}

// cellIndex maps a position to its (clamped) cell index.
func (g *Grid) cellIndex(p geom.Vec) int32 {
	cx := int((p.X - g.min.X) / g.cell)
	cy := int((p.Y - g.min.Y) / g.cell)
	if cx < 0 {
		cx = 0
	} else if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.rows {
		cy = g.rows - 1
	}
	return int32(cy*g.cols + cx)
}

// Insert places node id at position p. The id must not already be
// present and must be < capacity.
func (g *Grid) Insert(id int, p geom.Vec) {
	if g.location[id] != -1 {
		panic(fmt.Sprintf("spatial: node %d inserted twice", id))
	}
	c := g.cellIndex(p)
	g.cells[c] = append(g.cells[c], int32(id))
	g.location[id] = c
}

// Update moves node id to position p, relocating it across cells if
// needed. It is a no-op when the cell is unchanged.
func (g *Grid) Update(id int, p geom.Vec) {
	old := g.location[id]
	if old == -1 {
		g.Insert(id, p)
		return
	}
	c := g.cellIndex(p)
	if c == old {
		return
	}
	g.removeFromCell(id, old)
	g.cells[c] = append(g.cells[c], int32(id))
	g.location[id] = c
}

// Remove deletes node id from the index.
func (g *Grid) Remove(id int) {
	c := g.location[id]
	if c == -1 {
		return
	}
	g.removeFromCell(id, c)
	g.location[id] = -1
}

func (g *Grid) removeFromCell(id int, c int32) {
	cell := g.cells[c]
	for i, v := range cell {
		if v == int32(id) {
			cell[i] = cell[len(cell)-1]
			g.cells[c] = cell[:len(cell)-1]
			return
		}
	}
	panic(fmt.Sprintf("spatial: node %d not found in its cell", id))
}

// Contains reports whether id is currently indexed.
func (g *Grid) Contains(id int) bool { return g.location[id] != -1 }

// rings returns how many cell rings around a cell can hold points
// within radius r of it. One ring (the 3×3 neighborhood) suffices only
// while r <= cell side; larger radii need ceil(r/cell) rings.
//
// Coverage audit: k = ceil(r/cell) is exact, not merely conservative.
// Two points in cells k+1 apart on an axis satisfy |Δx| > k·cell
// STRICTLY (cell membership is a half-open interval [lo, hi), so the
// far point sits at >= lo and the near point at < hi of non-adjacent
// cells), hence d > k·cell >= r and the pair can never pass d² <= r².
// The strictness argument requires positions to lie inside the
// indexed square — cellIndex clamps outliers into border cells, which
// would break it — and every mobility model keeps nodes inside the
// deployment disc's bounding square (Manhattan uses the square
// itself), so the bound holds for radii beyond the cell side too
// (logshadow's widened candidate radius relies on this).
func (g *Grid) rings(r float64) int {
	k := int(math.Ceil(r / g.cell))
	if k < 1 {
		k = 1
	}
	return k
}

// cellsApart reports whether two cells (dx, dy) apart are too far for
// any of their points to lie within r of each other: the minimum
// point-to-point distance between the cells exceeds r.
func (g *Grid) cellsApart(dx, dy int, r float64) bool {
	gx := float64(abs(dx) - 1)
	gy := float64(abs(dy) - 1)
	if gx < 0 {
		gx = 0
	}
	if gy < 0 {
		gy = 0
	}
	return (gx*gx+gy*gy)*g.cell*g.cell > r*r
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Neighbors appends to dst the IDs of all indexed nodes other than id
// whose position (per pos) is within radius r of p, and returns dst.
// Radii larger than the cell side widen the scan to enough rings.
func (g *Grid) Neighbors(dst []int, id int, p geom.Vec, r float64, pos func(int) geom.Vec) []int {
	r2 := r * r
	k := g.rings(r)
	c := g.cellIndex(p)
	cx := int(c) % g.cols
	cy := int(c) / g.cols
	for dy := -k; dy <= k; dy++ {
		y := cy + dy
		if y < 0 || y >= g.rows {
			continue
		}
		for dx := -k; dx <= k; dx++ {
			x := cx + dx
			if x < 0 || x >= g.cols || g.cellsApart(dx, dy, r) {
				continue
			}
			for _, other := range g.cells[y*g.cols+x] {
				o := int(other)
				if o == id {
					continue
				}
				if p.Dist2(pos(o)) <= r2 {
					dst = append(dst, o)
				}
			}
		}
	}
	return dst
}

// Rows returns the number of cell rows in the grid — the shard axis
// for parallel pair scans (see ForEachPairRows).
func (g *Grid) Rows() int { return g.rows }

// ForEachPair invokes fn once for every unordered pair (a, b), a < b,
// of indexed nodes within radius r of each other. This is the bulk
// link-scan primitive. Radii larger than the cell side widen the scan
// to enough rings (ceil(r/cell)).
func (g *Grid) ForEachPair(r float64, pos func(int) geom.Vec, fn func(a, b int)) {
	g.ForEachPairRows(r, 0, g.rows, pos, fn)
}

// ForEachPairRows is ForEachPair restricted to owner cells in rows
// [rowLo, rowHi). Every pair is owned by exactly one cell — the
// lexicographically first of the two cells in row-major order — so
// scanning disjoint row ranges that cover [0, Rows()) reports every
// pair exactly once, each pair in exactly one range, in the same
// relative order as the full ForEachPair scan. Rows at or beyond rowHi
// are read (a pair may span the boundary) but never owned, so
// concurrent scans over disjoint ranges are safe as long as the grid
// is not mutated.
func (g *Grid) ForEachPairRows(r float64, rowLo, rowHi int, pos func(int) geom.Vec, fn func(a, b int)) {
	r2 := r * r
	k := g.rings(r)
	if rowLo < 0 {
		rowLo = 0
	}
	if rowHi > g.rows {
		rowHi = g.rows
	}
	for cy := rowLo; cy < rowHi; cy++ {
		for cx := 0; cx < g.cols; cx++ {
			cell := g.cells[cy*g.cols+cx]
			if len(cell) == 0 {
				continue
			}
			// Intra-cell pairs.
			for i := 0; i < len(cell); i++ {
				pi := pos(int(cell[i]))
				for j := i + 1; j < len(cell); j++ {
					if pi.Dist2(pos(int(cell[j]))) <= r2 {
						a, b := int(cell[i]), int(cell[j])
						if a > b {
							a, b = b, a
						}
						fn(a, b)
					}
				}
			}
			// Cross-cell pairs: pair with the "forward" half-plane of the
			// k-ring neighborhood (dy > 0, plus dy == 0 ∧ dx > 0) so each
			// cell pair is visited exactly once. For k = 1 these are the
			// classic E, SW, S, SE offsets.
			for dy := 0; dy <= k; dy++ {
				dxMin := -k
				if dy == 0 {
					dxMin = 1
				}
				for dx := dxMin; dx <= k; dx++ {
					x, y := cx+dx, cy+dy
					if x < 0 || x >= g.cols || y < 0 || y >= g.rows || g.cellsApart(dx, dy, r) {
						continue
					}
					other := g.cells[y*g.cols+x]
					for _, a := range cell {
						pa := pos(int(a))
						for _, b := range other {
							if pa.Dist2(pos(int(b))) <= r2 {
								u, v := int(a), int(b)
								if u > v {
									u, v = v, u
								}
								fn(u, v)
							}
						}
					}
				}
			}
		}
	}
}

// Len reports the number of indexed nodes.
func (g *Grid) Len() int {
	n := 0
	for _, l := range g.location {
		if l != -1 {
			n++
		}
	}
	return n
}

// CellStats returns the number of non-empty cells and the maximum
// occupancy, for diagnostics.
func (g *Grid) CellStats() (nonEmpty, maxOccupancy int) {
	for _, c := range g.cells {
		if len(c) > 0 {
			nonEmpty++
			if len(c) > maxOccupancy {
				maxOccupancy = len(c)
			}
		}
	}
	return
}
