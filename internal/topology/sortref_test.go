package topology

import (
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/spatial"
)

// The link builds and Giant produce their ordered outputs by
// construction. The functions below are the sort-based producers they
// replaced, kept as references: each collects in emission order and
// sorts at the end.

// refBuildLinks fills adjacency lists in grid emission order and the
// edge store with every kept pair, sorted once at the end.
func refBuildLinks(n int, pos []geom.Vec, radius float64, idx *spatial.Grid, keep func(a, b int) bool) *Graph {
	g := NewGraph(n)
	idx.ForEachPair(radius, func(i int) geom.Vec { return pos[i] }, func(a, b int) {
		if keep != nil && !keep(a, b) {
			return
		}
		g.adj[a] = append(g.adj[a], b)
		g.adj[b] = append(g.adj[b], a)
		g.bulk = append(g.bulk, MakeEdgeKey(a, b))
	})
	slices.Sort(g.bulk)
	return g
}

// refGiant copies and sorts the vertex list, collects every component
// in discovery order, and sorts the largest.
func refGiant(g *Graph, vertices []int) []int {
	seen := make([]bool, g.IDSpace())
	inSet := make([]bool, g.IDSpace())
	for _, v := range vertices {
		inSet[v] = true
	}
	sorted := slices.Clone(vertices)
	slices.Sort(sorted)
	var best []int
	for _, start := range sorted {
		if seen[start] {
			continue
		}
		seen[start] = true
		comp := []int{start}
		for head := 0; head < len(comp); head++ {
			for _, w := range g.Neighbors(comp[head]) {
				if inSet[w] && !seen[w] {
					seen[w] = true
					comp = append(comp, w)
				}
			}
		}
		if len(comp) > len(best) {
			best = comp
		}
	}
	slices.Sort(best)
	return best
}

// jiggle moves every node by up to ±step on each axis and reindexes it.
func jiggle(pos []geom.Vec, idx *spatial.Grid, src *rng.Source, step float64) {
	for i := range pos {
		pos[i].X += src.Range(-step, step)
		pos[i].Y += src.Range(-step, step)
		idx.Update(i, pos[i])
	}
}

// TestLinkBuildMatchesSortReference: over randomized layouts and
// motion, every link build — unit-disk and log-shadow, serial and
// sharded, into fresh and into reused storage — must equal the
// sort-based reference byte for byte: the same sorted edge store and
// the same adjacency order.
func TestLinkBuildMatchesSortReference(t *testing.T) {
	workers := []int{1, 2, 3, 8}
	pools := make([]*par.Pool, len(workers))
	for i, w := range workers {
		pools[i] = par.NewPool(w)
		defer pools[i].Close()
	}
	src := rng.New(41)
	for trial := 0; trial < 6; trial++ {
		n := 20 + src.Intn(300)
		rtx := src.Range(50, 120)
		pos := layout(n, 500, uint64(trial)+100)

		ud := NewUnitDisk(rtx)
		udIdx := lossyFixture(n, pos, rtx)
		udSpare := make([]*Graph, len(workers))
		udScr := make([]BuildScratch, len(workers))

		// One log-shadow twin per (worker count, storage) variant, so
		// each variant's hysteresis state evolves from its own builds.
		seed := uint64(trial) + 7
		ref := NewLogShadow(rtx, 3, 4, 3, seed)
		lsIdx := lossyFixture(n, pos, ref.Radius())
		fresh := make([]*LogShadow, len(workers))
		reuse := make([]*LogShadow, len(workers))
		lsSpare := make([]*Graph, len(workers))
		lsScr := make([]BuildScratch, len(workers))
		for i := range workers {
			fresh[i] = NewLogShadow(rtx, 3, 4, 3, seed)
			reuse[i] = NewLogShadow(rtx, 3, 4, 3, seed)
		}

		for tick := 0; tick < 4; tick++ {
			jiggle(pos, udIdx, src, 20)
			for i := range pos {
				lsIdx.Update(i, pos[i])
			}

			want := refBuildLinks(n, pos, rtx, udIdx, nil)
			for i := range workers {
				graphsIdentical(t, want, ud.BuildInto(nil, n, pos, udIdx, pools[i], nil))
				udSpare[i] = ud.BuildInto(udSpare[i], n, pos, udIdx, pools[i], &udScr[i])
				graphsIdentical(t, want, udSpare[i])
			}

			// The reference applies the exact predicate to ref's state
			// frozen at the last build, then refreshes that state from
			// its own edge store, as BuildInto does.
			want = refBuildLinks(n, pos, ref.Radius(), lsIdx, func(a, b int) bool {
				return ref.upExact(pos[a].Dist2(pos[b]), MakeEdgeKey(a, b), ref.Linked(a, b))
			})
			ref.linked = append(ref.linked[:0], want.bulk...)
			for i := range workers {
				graphsIdentical(t, want, fresh[i].BuildInto(nil, n, pos, lsIdx, pools[i], nil))
				lsSpare[i] = reuse[i].BuildInto(lsSpare[i], n, pos, lsIdx, pools[i], &lsScr[i])
				graphsIdentical(t, want, lsSpare[i])
			}
		}
	}
}

// TestGiantMatchesSortReference: Giant must return exactly the
// reference's component, in ascending order, for vertex lists that
// are ascending, shuffled, repeat vertices or omit graph nodes, and on
// graphs whose largest components tie in size — reusing one scratch
// throughout.
func TestGiantMatchesSortReference(t *testing.T) {
	src := rng.New(43)
	var s ComponentScratch
	check := func(name string, g *Graph, vertices []int) {
		t.Helper()
		want := refGiant(g, vertices)
		if got := s.Giant(g, vertices); !slices.Equal(got, want) {
			t.Fatalf("%s: Giant %v, reference %v", name, got, want)
		}
	}
	for trial := 0; trial < 20; trial++ {
		// Random geometric graph: many components of varied size.
		n := 10 + src.Intn(200)
		g := BuildUnitDiskBrute(layout(n, 500, uint64(trial)+200), src.Range(30, 90))
		all := seq(n)
		check("ascending", g, all)
		shuffled := slices.Clone(all)
		src.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		check("shuffled", g, shuffled)
		var subset []int
		for _, v := range shuffled {
			if src.Float64() < 0.7 {
				subset = append(subset, v)
			}
		}
		check("shuffled subset", g, subset)
		slices.Sort(subset)
		check("ascending subset", g, subset)
		check("repeated vertices", g, append(slices.Clone(shuffled), shuffled[:n/2]...))

		// Equal-size components: disjoint paths of one length over a
		// random labelling, so the tie-break picks among interleaved IDs.
		paths, length := 2+src.Intn(4), 1+src.Intn(5)
		perm := seq(paths * length)
		src.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		tied := NewGraph(len(perm))
		for p := 0; p < paths; p++ {
			for i := 1; i < length; i++ {
				tied.AddEdge(perm[p*length+i-1], perm[p*length+i])
			}
		}
		check("tied", tied, seq(len(perm)))
		check("tied shuffled", tied, perm)
	}
	check("empty", NewGraph(4), nil)
}
