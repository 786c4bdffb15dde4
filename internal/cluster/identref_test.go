package cluster

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/topology"
)

// matchLevel and buildPrevHead work in head-ID space: dense rows
// indexed by physical head, with each level's matches recorded as
// previous head <-> next head. The functions below are the map-based
// matcher and elector memory they replaced, which work in logical-ID
// space, kept as references.

type refPair struct {
	prev uint64
	next int
}

// refTrack assigns logical IDs to the clusters of h from the previous
// snapshot, pairing each level-0 node's previous logical chain with
// its level-k ancestor in h and counting the pairs in a map.
func refTrack(tr *IdentityTracker, prevH *Hierarchy, prevIDs *Identities, h *Hierarchy) *Identities {
	base := h.LevelNodes(0)
	prevLog := map[int][]uint64{}
	if prevH != nil && prevIDs != nil {
		for _, v := range prevH.LevelNodes(0) {
			prevLog[v] = prevIDs.AppendChainOf(prevH, v, nil)
		}
	}
	anc := map[int]int{}
	for _, v := range base {
		anc[v] = v
	}
	ids := &Identities{}
	for k := 1; k <= h.L(); k++ {
		for _, v := range base {
			if an := anc[v]; an >= 0 {
				anc[v] = h.Levels[k-1].MemberOf(an)
			}
		}
		ids.byLevel = append(ids.byLevel, refMatchLevel(tr, k, h.LevelNodes(k), base, anc, prevLog, h.idSpace()))
	}
	return ids
}

func refMatchLevel(tr *IdentityTracker, k int, newHeads, base []int, anc map[int]int, prevLog map[int][]uint64, idSpace int) []uint64 {
	row := growFilled(nil, idSpace, noLogical)
	if tr.Passthrough {
		for _, h := range newHeads {
			row[h] = uint64(h)
		}
		return row
	}
	counts := map[refPair]int{}
	for _, v := range base {
		nh := anc[v]
		if nh < 0 {
			continue
		}
		if chain := prevLog[v]; len(chain) >= k {
			counts[refPair{prev: chain[k-1], next: nh}]++
		}
	}
	var pairs []refPair
	for p := range counts {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(x, y refPair) int {
		cx, cy := counts[x], counts[y]
		switch {
		case cx != cy:
			if cx > cy {
				return -1
			}
			return 1
		case x.prev != y.prev:
			if x.prev < y.prev {
				return -1
			}
			return 1
		default:
			return x.next - y.next
		}
	})
	usedPrev := map[uint64]bool{}
	for _, p := range pairs {
		if usedPrev[p.prev] || row[p.next] != noLogical {
			continue
		}
		row[p.next] = p.prev
		usedPrev[p.prev] = true
	}
	for _, h := range newHeads {
		if row[h] == noLogical {
			row[h] = tr.alloc(h)
		}
	}
	return row
}

// prevDiff checks every level-k Prev answer of ids against the
// previous cluster with the same logical ID, found through a logical
// ID -> head map of prevH's clusters, and returns the first mismatch.
func prevDiff(ids *Identities, h, prevH *Hierarchy, prevIDs *Identities) string {
	for k := 1; k <= h.L(); k++ {
		holder := map[uint64]int{}
		if prevH != nil {
			for _, p := range prevH.LevelNodes(k) {
				if q, ok := prevIDs.Logical(k, p); ok {
					holder[q] = p
				}
			}
		}
		for _, c := range h.LevelNodes(k) {
			want := -1
			if q, ok := ids.Logical(k, c); ok {
				if p, ok := holder[q]; ok {
					want = p
				}
			}
			if got := ids.Prev(k, c); got != want {
				return fmt.Sprintf("level %d cluster %d: Prev %d, reference %d", k, c, got, want)
			}
		}
	}
	return ""
}

// refPrevElect returns the previous snapshot's elections in logical
// space: [k][logical u] = logical head u elected at level k (k >= 1).
func refPrevElect(prevH *Hierarchy, prevIDs *Identities) map[int]map[uint64]uint64 {
	out := map[int]map[uint64]uint64{}
	if prevH == nil || prevIDs == nil {
		return out
	}
	for k := 1; k <= prevH.L(); k++ {
		lvl := prevH.Level(k)
		if !lvl.Elected() {
			continue
		}
		m := map[uint64]uint64{}
		for _, u := range lvl.Nodes {
			lu, okU := prevIDs.Logical(k, u)
			lw, okW := prevIDs.Logical(k, lvl.HeadOf(u))
			if okU && okW {
				m[lu] = lw
			}
		}
		out[k] = m
	}
	return out
}

// refPrevHead is the elector memory at level k over the finished
// snapshot's identities: the current carrier of the logical head u
// elected last time, through a logical ID -> carrier map.
func refPrevHead(k int, curNodes []int, ids *Identities, prevH *Hierarchy, prevElect map[int]map[uint64]uint64) func(int) int {
	if k == 0 {
		if prevH == nil || !prevH.Level(0).Elected() {
			return func(int) int { return -1 }
		}
		pl0 := prevH.Level(0)
		return func(u int) int {
			if hd := pl0.HeadOf(u); hd >= 0 {
				if _, live := slices.BinarySearch(curNodes, hd); live {
					return hd
				}
			}
			return -1
		}
	}
	elect := prevElect[k]
	carrier := map[uint64]int{}
	for _, u := range curNodes {
		if l, ok := ids.Logical(k, u); ok {
			carrier[l] = u
		}
	}
	return func(u int) int {
		lu, ok := ids.Logical(k, u)
		if !ok {
			return -1
		}
		lw, ok := elect[lu]
		if !ok {
			return -1
		}
		if w, ok := carrier[lw]; ok {
			return w
		}
		return -1
	}
}

// prevHeadLog records, per election round of one build, the elected
// nodes and what the elector memory answered for each.
type prevHeadLog struct {
	nodes, answers [][]int
}

func (l *prevHeadLog) record(nodes []int, prevHead func(int) int) {
	ans := make([]int, len(nodes))
	for i, u := range nodes {
		ans[i] = prevHead(u)
	}
	l.nodes = append(l.nodes, slices.Clone(nodes))
	l.answers = append(l.answers, ans)
}

// recElector records the memory it is handed, then elects with inner.
type recElector struct {
	inner Elector
	log   *prevHeadLog
}

func (r recElector) Name() string { return r.inner.Name() }

func (r recElector) Elect(dst []int, nodes []int, g *topology.Graph, prevHead func(int) int) []int {
	r.log.record(nodes, prevHead)
	return r.inner.Elect(dst, nodes, g, prevHead)
}

// recStateful is recElector for a StatefulElector.
type recStateful struct {
	recElector
	inner StatefulElector
}

func (r recStateful) ElectTracked(dst []int, ctx *ElectCtx) []int {
	r.log.record(ctx.Nodes, ctx.PrevHead)
	return r.inner.ElectTracked(dst, ctx)
}

// driftChurnGraph is churnGraph with the ID space ending at the highest
// alive node, so a death among the top IDs shrinks it below heads of
// the previous snapshot.
func driftChurnGraph(pos []geom.Vec, alive []bool, rtx float64) (*topology.Graph, []int) {
	top := -1
	for i, ok := range alive {
		if ok {
			top = i
		}
	}
	g, _ := churnGraph(pos[:top+1], alive[:top+1], rtx)
	var live []int
	for i := 0; i <= top; i++ {
		if alive[i] {
			live = append(live, i)
		}
	}
	return g, topology.GiantComponent(g, live)
}

// TestIdentityMatchingMatchesMapReference drives tracked builds through
// drift and node churn — nodes die and return, the highest IDs (which
// head clusters at every level) most often, so the ID space shrinks
// below the previous snapshot's heads — and holds every level's
// identity row and every elector-memory answer against the map-based
// reference. Every level's Prev row must name the previous cluster
// holding the same logical ID, as a logical ID -> head map finds it,
// and MatchedFrom must name the previous identities only. The builds
// share one recycling arena, as in the simulation loop, so a recycled
// value must not pass for the one it was before.
func TestIdentityMatchingMatchesMapReference(t *testing.T) {
	cases := []struct {
		name        string
		elector     func() Elector
		passthrough bool
		forceTop    int
	}{
		{"sticky", func() Elector { return StickyLCA{} }, false, 0},
		{"sticky-passthrough", func() Elector { return StickyLCA{} }, true, 0},
		{"debounced", func() Elector { return NewDebouncedLCA(3) }, false, 0},
		{"debounced-passthrough", func() Elector { return NewDebouncedLCA(3) }, true, 0},
		{"debounced-forcetop", func() Elector { return &DebouncedLCA{Grace: 2, LevelScale: 1.5} }, false, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n, steps = 160, 70
			src := rng.New(41)
			d := geom.Disc{R: 400}
			pos := make([]geom.Vec, n)
			alive := make([]bool, n)
			for i := range pos {
				pos[i] = d.Sample(src)
				alive[i] = true
			}
			log := &prevHeadLog{}
			inner := tc.elector()
			var el Elector = recElector{inner: inner, log: log}
			if se, ok := inner.(StatefulElector); ok {
				el = recStateful{recElector: recElector{inner: inner, log: log}, inner: se}
			}
			cfg := Config{Elector: el, Reach: -1, ForceTopAt: tc.forceTop}
			tr := NewIdentityTracker()
			tr.Passthrough = tc.passthrough
			arena := NewArena()
			var h, retH *Hierarchy
			var ids, retIDs *Identities
			var remembered, relabeled, returned, shrunk int
			prevSpace := 0
			for step := 0; step < steps; step++ {
				if step > 0 {
					for i := range alive {
						p := 0.03
						if i >= n-4 {
							p = 0.2
						}
						if src.Float64() < p {
							if !alive[i] {
								returned++
							}
							alive[i] = !alive[i]
						}
					}
				}
				g, nodes := driftChurnGraph(pos, alive, 100)
				if g.IDSpace() < prevSpace {
					shrunk++
				}
				prevSpace = g.IDSpace()

				trBefore := *tr
				log.nodes, log.answers = log.nodes[:0], log.answers[:0]
				arena.Recycle(retH, retIDs)
				prevH, prevIDs := h, ids
				h, ids = BuildWithIdentitiesArena(arena, g, nodes, cfg, prevH, prevIDs, tr, float64(step))
				retH, retIDs = prevH, prevIDs

				trRef := trBefore
				if diff := identsDiff(refTrack(&trRef, prevH, prevIDs, h), ids); diff != "" {
					t.Fatalf("step %d: identities differ from the reference: %s", step, diff)
				}
				if trRef.nextID != tr.nextID {
					t.Fatalf("step %d: next fresh ID %d, reference %d", step, tr.nextID, trRef.nextID)
				}
				if diff := prevDiff(ids, h, prevH, prevIDs); diff != "" {
					t.Fatalf("step %d: %s", step, diff)
				}
				if prevIDs != nil && (!ids.MatchedFrom(prevIDs) || prevIDs.MatchedFrom(ids) || ids.MatchedFrom(ids)) {
					t.Fatalf("step %d: MatchedFrom names other identities than the previous ones", step)
				}

				elect := refPrevElect(prevH, prevIDs)
				for k, nodes := range log.nodes {
					if !slices.Equal(nodes, h.LevelNodes(k)) {
						t.Fatalf("step %d: election %d ran over %v, want level-%d nodes", step, k, nodes, k)
					}
					ref := refPrevHead(k, nodes, ids, prevH, elect)
					for i, u := range nodes {
						got, want := log.answers[k][i], ref(u)
						if got != want {
							t.Fatalf("step %d level %d node %d: previous head %d, reference %d", step, k, u, got, want)
						}
						if k >= 1 && got >= 0 {
							remembered++
							if prevH.Level(k).HeadOf(u) != got {
								relabeled++
							}
						}
					}
				}
				for i := range pos {
					pos[i] = d.Clamp(pos[i].Add(geom.Vec{X: src.Range(-15, 15), Y: src.Range(-15, 15)}))
				}
			}
			t.Logf("memory answers at k>=1: %d (%d through a relabel); returns %d; ID-space shrinks %d",
				remembered, relabeled, returned, shrunk)
			if remembered == 0 || returned == 0 || shrunk == 0 {
				t.Fatalf("vacuous run: remembered %d, returned %d, shrunk %d", remembered, returned, shrunk)
			}
			if !tc.passthrough && relabeled == 0 {
				t.Fatal("no level-k memory answer crossed a head relabel")
			}
		})
	}
}
