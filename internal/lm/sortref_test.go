package lm

import (
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/topology"
)

// refTableDiffs is the sort-based producer appendTableDiffs replaced,
// kept as its reference: next's owners first, then owners only in
// prev, and one sort by (owner, level) at the end.
func refTableDiffs(prev, next *Table) []TableDiff {
	var out []TableDiff
	for nRow, v := range next.owners {
		maxK := len(next.servers[nRow])
		inPrev := false
		if prev != nil {
			if r := prev.row(v); r >= 0 {
				inPrev = true
				maxK = max(maxK, len(prev.servers[r]))
			}
		}
		for k := 1; k <= maxK; k++ {
			oldS := -1
			if inPrev {
				oldS = prev.Server(v, k)
			}
			if newS := next.Server(v, k); oldS != newS {
				out = append(out, TableDiff{Owner: v, Level: k, OldServer: oldS, NewServer: newS})
			}
		}
	}
	if prev != nil {
		for _, v := range prev.owners {
			if next.row(v) >= 0 {
				continue
			}
			for k := 1; k <= prev.Levels(v); k++ {
				if s := prev.Server(v, k); s >= 0 {
					out = append(out, TableDiff{Owner: v, Level: k, OldServer: s, NewServer: -1})
				}
			}
		}
	}
	slices.SortFunc(out, func(a, b TableDiff) int {
		if a.Owner != b.Owner {
			return a.Owner - b.Owner
		}
		return a.Level - b.Level
	})
	return out
}

// TestTableDiffsMatchSortReference: over a sequence of tables whose
// owner sets follow a moving, partly disconnected network's giant
// component, appendTableDiffs (into one reused buffer) must equal the
// sorted reference for a nil prev and for every ordered pair of
// tables, which between them have owners only in prev, only in next,
// and in both.
func TestTableDiffsMatchSortReference(t *testing.T) {
	const n = 120
	src := rng.New(53)
	d := geom.Disc{R: 520}
	pos := make([]geom.Vec, n)
	for i := range pos {
		pos[i] = d.Sample(src)
	}
	sel := NewSelector(nil)
	tr := cluster.NewIdentityTracker()
	var tables []*Table
	var h *cluster.Hierarchy
	var ids *cluster.Identities
	for step := 0; step < 8; step++ {
		g := topology.BuildUnitDiskBrute(pos, 100)
		h, ids = cluster.BuildWithIdentities(g, topology.GiantComponent(g, nodesUpTo(n)), cluster.Config{}, h, ids, tr, float64(step))
		tables = append(tables, sel.BuildTable(h, ids))
		for i := range pos {
			pos[i] = d.Clamp(pos[i].Add(geom.Vec{X: src.Range(-40, 40), Y: src.Range(-40, 40)}))
		}
	}

	var out []TableDiff
	check := func(name string, prev, next *Table) {
		t.Helper()
		want := refTableDiffs(prev, next)
		out = appendTableDiffs(out[:0], prev, next)
		if !slices.Equal(out, want) {
			t.Fatalf("%s: diff\n got %+v\nwant %+v", name, out, want)
		}
	}
	onlyPrev, onlyNext, both := false, false, false
	for i, ti := range tables {
		check("nil prev", nil, ti)
		for j, tj := range tables {
			if i == j {
				continue
			}
			check("pair", ti, tj)
			for _, v := range ti.owners {
				if tj.row(v) >= 0 {
					both = true
				} else {
					onlyPrev = true
				}
			}
			for _, v := range tj.owners {
				onlyNext = onlyNext || ti.row(v) < 0
			}
		}
	}
	if !onlyPrev || !onlyNext || !both {
		t.Fatalf("owner cases not all exercised: only prev %v, only next %v, both %v", onlyPrev, onlyNext, both)
	}
}
