package lm

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/topology"
)

// tablesIdentical requires byte-identical tables: same owner list and
// row mapping, same per-row server and chain contents.
func tablesIdentical(t *testing.T, want, got *Table) {
	t.Helper()
	if len(want.owners) != len(got.owners) {
		t.Fatalf("owner count %d vs %d", len(want.owners), len(got.owners))
	}
	for i, v := range want.owners {
		if got.owners[i] != v {
			t.Fatalf("owner %d: %d vs %d", i, v, got.owners[i])
		}
		if got.index[v] != want.index[v] {
			t.Fatalf("owner %d: row %d vs %d", v, want.index[v], got.index[v])
		}
	}
	for row := range want.servers {
		ws, gs := want.servers[row], got.servers[row]
		wc, gc := want.chains[row], got.chains[row]
		if len(ws) != len(gs) || len(wc) != len(gc) {
			t.Fatalf("row %d: shape (%d,%d) vs (%d,%d)", row, len(ws), len(wc), len(gs), len(gc))
		}
		for i := range ws {
			if ws[i] != gs[i] {
				t.Fatalf("row %d level %d: server %d vs %d", row, i+1, ws[i], gs[i])
			}
			if wc[i] != gc[i] {
				t.Fatalf("row %d level %d: chain %d vs %d", row, i+1, wc[i], gc[i])
			}
		}
	}
}

// tableSnapshots builds `ticks`+1 hierarchy snapshots of n drifting
// nodes with identity continuity across them.
func tableSnapshots(n, ticks int, seed uint64) ([]*cluster.Hierarchy, []*cluster.Identities) {
	src := rng.New(seed)
	d := geom.Disc{R: 420}
	pos := make([]geom.Vec, n)
	for i := range pos {
		pos[i] = d.Sample(src)
	}
	tr := cluster.NewIdentityTracker()
	var hs []*cluster.Hierarchy
	var ids []*cluster.Identities
	var prevH *cluster.Hierarchy
	var prevIDs *cluster.Identities
	for tick := 0; tick <= ticks; tick++ {
		g := topology.BuildUnitDiskBrute(pos, 100)
		h, id := cluster.BuildWithIdentities(g, nodesUpTo(n), cluster.Config{}, prevH, prevIDs, tr, float64(tick))
		hs = append(hs, h)
		ids = append(ids, id)
		prevH, prevIDs = h, id
		for i := range pos {
			pos[i] = d.Clamp(pos[i].Add(geom.Vec{X: src.Range(-25, 25), Y: src.Range(-25, 25)}))
		}
	}
	return hs, ids
}

// TestUpdateTableParReuse drives UpdateTableIntoPar in the
// double-buffered loop shape: two recycled destination tables, one
// scratch, many ticks, each compared with the from-scratch BuildTable.
func TestUpdateTableParReuse(t *testing.T) {
	const n, ticks = 120, 6
	hs, ids := tableSnapshots(n, ticks, 9)
	s := NewSelector(nil)
	var sc UpdateScratch
	prev := s.BuildTable(hs[0], ids[0])
	var spare [2]*Table
	for tick := 1; tick <= ticks; tick++ {
		next := s.UpdateTableIntoPar(spare[tick%2], &sc, nil,
			prev, hs[tick-1], ids[tick-1], hs[tick], ids[tick], nil, nil)
		tablesIdentical(t, s.BuildTable(hs[tick], ids[tick]), next)
		spare[tick%2] = prev
		prev = next
	}
}
