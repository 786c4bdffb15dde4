package cluster

import (
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

// Differential battery: IncrementalMaintainer must reproduce the
// oracle's snapshots, identities (including the fresh-ID sequence),
// and elector-state evolution, tick for tick, over evolving topologies
// with small per-tick deltas (the fast-path regime) interleaved with
// bursts (forcing fallback + resync).

// maintDriver runs one Maintainer in the simulation loop's
// double-buffer pattern (Retire the t-2 snapshot, then Maintain).
type maintDriver struct {
	mnt         Maintainer
	h, retH     *Hierarchy
	ids, retIDs *Identities
}

func (d *maintDriver) tick(in MaintainInput) (*Hierarchy, *Identities) {
	d.mnt.Retire(d.retH, d.retIDs)
	d.retH, d.retIDs = nil, nil
	in.PrevH, in.PrevIDs = d.h, d.ids
	nh, nids := d.mnt.Maintain(&in)
	d.retH, d.retIDs = d.h, d.ids
	d.h, d.ids = nh, nids
	return nh, nids
}

// edgeWorld evolves a random symmetric edge set by flipping pairs, and
// materializes each tick's graph into alternating buffers so the
// previous graph object stays alive (the MaintainInput contract).
type edgeWorld struct {
	n     int
	rng   *rng.Source
	has   map[topology.EdgeKey]bool
	bufs  [2]*topology.Graph
	cur   int
	diff  topology.DiffScratch
	giant topology.ComponentScratch
	all   []int
}

func newEdgeWorld(n int, seed int64, density float64) *edgeWorld {
	w := &edgeWorld{n: n, rng: rng.New(uint64(seed)), has: map[topology.EdgeKey]bool{}}
	for i := 0; i < n; i++ {
		w.all = append(w.all, i)
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if w.rng.Float64() < density {
				w.has[topology.MakeEdgeKey(a, b)] = true
			}
		}
	}
	return w
}

// flip toggles m random pairs.
func (w *edgeWorld) flip(m int) {
	for i := 0; i < m; i++ {
		a := w.rng.Intn(w.n)
		b := w.rng.Intn(w.n)
		if a == b {
			continue
		}
		k := topology.MakeEdgeKey(a, b)
		if w.has[k] {
			delete(w.has, k)
		} else {
			w.has[k] = true
		}
	}
}

// graph builds the current edge set into the next buffer and returns
// (newGraph, prevGraph, events).
func (w *edgeWorld) graph() (*topology.Graph, *topology.Graph, []topology.LinkEvent) {
	w.cur ^= 1
	g := w.bufs[w.cur]
	if g == nil {
		g = topology.NewGraph(w.n)
		w.bufs[w.cur] = g
	} else {
		g.Reset(w.n)
	}
	for a := 0; a < w.n; a++ {
		for b := a + 1; b < w.n; b++ {
			if w.has[topology.MakeEdgeKey(a, b)] {
				g.AddEdge(a, b)
			}
		}
	}
	prev := w.bufs[w.cur^1]
	var events []topology.LinkEvent
	if prev != nil {
		events = w.diff.Diff(prev, g)
	}
	return g, prev, events
}

// denseEqual compares two dense ID-indexed slices over every ID either
// covers, reading IDs beyond a slice as absent; it returns the first
// differing ID, or -1.
func denseEqual[T comparable](a, b []T, absent T) int {
	for i := 0; i < max(len(a), len(b)); i++ {
		va, vb := absent, absent
		if i < len(a) {
			va = a[i]
		}
		if i < len(b) {
			vb = b[i]
		}
		if va != vb {
			return i
		}
	}
	return -1
}

func intSlicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hierDiff reports the first difference between two snapshots, "" if
// none. The dense election slices are compared over every ID, so a
// stale entry left beside the node lists shows as a difference.
func hierDiff(a, b *Hierarchy) string {
	if len(a.Levels) != len(b.Levels) {
		return fmt.Sprintf("levels %d vs %d", len(a.Levels), len(b.Levels))
	}
	if a.ForcedTop != b.ForcedTop {
		return fmt.Sprintf("forcedTop %v vs %v", a.ForcedTop, b.ForcedTop)
	}
	if a.Reach != b.Reach {
		return fmt.Sprintf("reach %d vs %d", a.Reach, b.Reach)
	}
	for k := range a.Levels {
		la, lb := a.Levels[k], b.Levels[k]
		if !intSlicesEqual(la.Nodes, lb.Nodes) {
			return fmt.Sprintf("level %d nodes %v vs %v", k, la.Nodes, lb.Nodes)
		}
		if (la.Graph == nil) != (lb.Graph == nil) {
			return fmt.Sprintf("level %d graph nil-ness", k)
		}
		if la.Graph != nil && !la.Graph.Equal(lb.Graph) {
			return fmt.Sprintf("level %d graph edge sets differ", k)
		}
		if la.Elected() != lb.Elected() {
			return fmt.Sprintf("level %d elected %v vs %v", k, la.Elected(), lb.Elected())
		}
		if u := denseEqual(la.Head, lb.Head, -1); u >= 0 {
			return fmt.Sprintf("level %d head[%d] %d vs %d", k, u, la.HeadOf(u), lb.HeadOf(u))
		}
		if u := denseEqual(la.Member, lb.Member, -1); u >= 0 {
			return fmt.Sprintf("level %d member[%d] %d vs %d", k, u, la.MemberOf(u), lb.MemberOf(u))
		}
		if c := denseEqual(la.State, lb.State, -1); c >= 0 {
			return fmt.Sprintf("level %d state[%d] %d vs %d", k, c, la.StateOf(c), lb.StateOf(c))
		}
		for c := 0; c < max(len(la.Members), len(lb.Members)); c++ {
			if !intSlicesEqual(la.MembersOf(c), lb.MembersOf(c)) {
				return fmt.Sprintf("level %d members[%d] %v vs %v", k, c, la.MembersOf(c), lb.MembersOf(c))
			}
		}
	}
	return ""
}

func identsDiff(a, b *Identities) string {
	if len(a.byLevel) != len(b.byLevel) {
		return fmt.Sprintf("id levels %d vs %d", len(a.byLevel), len(b.byLevel))
	}
	for k := range a.byLevel {
		if hd := denseEqual(a.byLevel[k], b.byLevel[k], noLogical); hd >= 0 {
			la, _ := a.Logical(k+1, hd)
			lb, _ := b.Logical(k+1, hd)
			return fmt.Sprintf("level %d id[%d] %d vs %d", k+1, hd, la, lb)
		}
	}
	return ""
}

// memberSig maps each level-k logical cluster to the sorted logical IDs
// of its members (node IDs at k=1), for the dirty-set audit. Level-k
// clusters are formed by the election at level k-1, so their member
// lists live in Level(k-1).Members.
func memberSig(h *Hierarchy, ids *Identities, k int) map[uint64][]uint64 {
	sig := map[uint64][]uint64{}
	lvl := h.Level(k - 1)
	if lvl == nil || !lvl.Elected() {
		return sig
	}
	for _, hd := range h.LevelNodes(k) {
		ms := lvl.MembersOf(hd)
		q, ok := ids.Logical(k, hd)
		if !ok {
			continue
		}
		var s []uint64
		for _, u := range ms {
			if k == 1 {
				s = append(s, uint64(u))
			} else if lq, ok := ids.Logical(k-1, u); ok {
				s = append(s, lq)
			}
		}
		sortU64(s)
		sig[q] = s
	}
	return sig
}

func sortU64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func u64SlicesEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// auditDirty checks the DirtyClusters contract against the actual
// snapshot pair: every logical cluster whose member-key set changed
// (or that exists in only one snapshot) must be marked, and so must
// its ancestors in both snapshots.
func auditDirty(t *testing.T, tickNo int, dirty *DirtyClusters,
	prevH, nextH *Hierarchy, prevIDs, nextIDs *Identities) {
	t.Helper()
	maxL := prevH.L()
	if l := nextH.L(); l > maxL {
		maxL = l
	}
	marked := func(k int, q uint64) bool {
		return k >= 1 && k < len(dirty.ByLevel) && dirty.ByLevel[k][q]
	}
	// changed[k] holds the dirty logicals at level k (for the ancestor
	// pass below).
	changed := make([]map[uint64]bool, maxL+1)
	for k := 1; k <= maxL; k++ {
		changed[k] = map[uint64]bool{}
		ps := memberSig(prevH, prevIDs, k)
		ns := memberSig(nextH, nextIDs, k)
		for q, s := range ps {
			if !u64SlicesEqual(s, ns[q]) {
				changed[k][q] = true
			}
		}
		for q := range ns {
			if _, ok := ps[q]; !ok {
				changed[k][q] = true
			}
		}
		for q := range changed[k] {
			if !marked(k, q) {
				t.Fatalf("tick %d: level-%d cluster %d member set changed but not marked dirty", tickNo, k, q)
			}
		}
	}
	// Ancestor propagation in both snapshots: a dirty level-k cluster's
	// head is a level-k node; its parent is the level-(k+1) cluster the
	// level-k election assigns that head to.
	for _, side := range []struct {
		h   *Hierarchy
		ids *Identities
	}{{prevH, prevIDs}, {nextH, nextIDs}} {
		for k := 1; k < side.h.L(); k++ {
			lvl := side.h.Level(k - 1)
			up := side.h.Level(k)
			if lvl == nil || !lvl.Elected() || up == nil || !up.Elected() {
				continue
			}
			for _, hd := range up.Nodes {
				q, ok := side.ids.Logical(k, hd)
				if !ok || !(changed[k][q] || marked(k, q)) {
					continue
				}
				p := up.MemberOf(hd)
				if p < 0 {
					continue
				}
				pq, ok := side.ids.Logical(k+1, p)
				if !ok {
					continue
				}
				if !marked(k+1, pq) {
					t.Fatalf("tick %d: level-%d cluster %d dirty but ancestor %d at level %d unmarked",
						tickNo, k, q, pq, k+1)
				}
			}
		}
	}
}

// runDifferential drives oracle and incremental maintainers over the
// same topology sequence and compares everything every tick. Returns
// the incremental maintainer's stats.
func runDifferential(t *testing.T, cfgOracle, cfgInc Config, seed int64, n, ticks int, useGiant bool) IncrementalStats {
	t.Helper()
	w := newEdgeWorld(n, seed, 2.2/float64(n))
	oracle := &maintDriver{mnt: NewOracleMaintainer(cfgOracle, NewIdentityTracker())}
	incM := NewIncrementalMaintainer(cfgInc, NewIdentityTracker())
	inc := &maintDriver{mnt: incM}

	for i := 0; i < ticks; i++ {
		switch {
		case i == 0:
			// initial topology as-is
		case i%17 == 0:
			w.flip(1 + w.rng.Intn(12)) // burst: force structure changes
		default:
			w.flip(1 + w.rng.Intn(3))
		}
		g, prevG, events := w.graph()
		nodes := w.all
		if useGiant {
			nodes = w.giant.Giant(g, w.all)
		}
		now := float64(i)
		in := MaintainInput{G0: g, PrevG0: prevG, Nodes: nodes, Events: events, Now: now}
		ho, idso := oracle.tick(in)
		hi, idsi := inc.tick(in)
		if d := hierDiff(ho, hi); d != "" {
			t.Fatalf("tick %d (seed %d): hierarchy diverged: %s", i, seed, d)
		}
		if d := identsDiff(idso, idsi); d != "" {
			t.Fatalf("tick %d (seed %d): identities diverged: %s", i, seed, d)
		}
		if err := hi.Validate(); err != nil {
			t.Fatalf("tick %d (seed %d): invalid incremental hierarchy: %v", i, seed, err)
		}
		if dirty := incM.DirtyClusters(); dirty != nil && oracle.retH != nil {
			auditDirty(t, i, dirty, oracle.retH, ho, oracle.retIDs, idso)
		}
	}
	return incM.Stats()
}

func TestIncrementalMatchesOracle(t *testing.T) {
	cases := []struct {
		name      string
		mk        func() Config
		useGiant  bool
		wantsFast bool
	}{
		{"memoryless", func() Config { return Config{} }, false, true},
		{"memoryless-giant", func() Config { return Config{} }, true, true},
		{"sticky", func() Config { return Config{Elector: StickyLCA{}} }, false, true},
		{"debounced", func() Config {
			return Config{Elector: NewDebouncedLCA(2.5), Reach: -1}
		}, false, true},
		{"debounced-scaled-giant", func() Config {
			d := NewDebouncedLCA(1.5)
			d.LevelScale = 2
			return Config{Elector: d, Reach: -1}
		}, true, true},
		{"forcetop", func() Config { return Config{ForceTopAt: 4} }, false, true},
		{"forcetop-sticky-giant", func() Config {
			return Config{ForceTopAt: 5, Elector: StickyLCA{}}
		}, true, true},
		{"maxlevels", func() Config { return Config{MaxLevels: 2} }, false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				st := runDifferential(t, tc.mk(), tc.mk(), seed, 48, 120, tc.useGiant)
				if tc.wantsFast && st.Incremental == 0 {
					t.Fatalf("seed %d: fast path never engaged (%d fallbacks)", seed, st.Fallbacks)
				}
			}
		})
	}
}

// TestIncrementalFallbackElectors: non-neighborhood electors must fall
// back every tick yet still match the oracle exactly.
func TestIncrementalFallbackElectors(t *testing.T) {
	mk := func() Config { return Config{Elector: maxMinStub{}, Reach: -1} }
	st := runDifferential(t, mk(), mk(), 7, 32, 40, false)
	if st.Incremental != 0 {
		t.Fatalf("non-neighborhood elector took the fast path %d times", st.Incremental)
	}
}

// maxMinStub is a deliberately non-local elector (no NeighborhoodElector
// marker): everyone elects the globally maximal node of the level.
type maxMinStub struct{}

func (maxMinStub) Name() string { return "global-max-stub" }

func (maxMinStub) Elect(dst []int, nodes []int, g *topology.Graph, prevHead func(int) int) []int {
	best := -1
	for _, u := range nodes {
		if u > best {
			best = u
		}
	}
	for range nodes {
		dst = append(dst, best)
	}
	return dst
}
