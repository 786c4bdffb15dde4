package cluster

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/topology"
)

// TestRecycledStorageMatchesFresh drives the arena-backed maintainer
// through node churn — nodes die and return, so IDs leave and rejoin
// every level, as nodes and as cluster heads — and requires every
// tick's snapshot to equal a build from fresh storage. The dense
// election slices, identity rows and prev rows are compared over every
// ID, so an entry that a sparse reset left behind in recycled storage
// shows up as a difference even when no node list names it.
func TestRecycledStorageMatchesFresh(t *testing.T) {
	cases := []struct {
		name string
		mk   func() Config
	}{
		{"memoryless", func() Config { return Config{} }},
		{"debounced", func() Config { return Config{Elector: NewDebouncedLCA(2), Reach: -1} }},
		{"forcetop", func() Config { return Config{ForceTopAt: 6} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n, steps = 180, 80
			src := rng.New(23)
			d := geom.Disc{R: 430}
			pos := make([]geom.Vec, n)
			for i := range pos {
				pos[i] = d.Sample(src)
			}
			alive := make([]bool, n)
			for i := range alive {
				alive[i] = true
			}
			cfgFresh := tc.mk()
			trFresh := NewIdentityTracker()
			loop := &maintDriver{mnt: NewOracleMaintainer(tc.mk(), NewIdentityTracker())}
			var hF *Hierarchy
			var idsF *Identities
			returned := 0
			for step := 0; step < steps; step++ {
				if step > 0 {
					for i := range alive {
						if src.Float64() < 0.03 {
							if !alive[i] {
								returned++
							}
							alive[i] = !alive[i]
						}
					}
				}
				g, nodes := churnGraph(pos, alive, 100)
				now := float64(step)
				hF, idsF = BuildWithIdentities(g, nodes, cfgFresh, hF, idsF, trFresh, now)
				h, ids := loop.tick(MaintainInput{G0: g, Nodes: nodes, Now: now})
				if diff := hierDiff(hF, h); diff != "" {
					t.Fatalf("step %d: hierarchy differs from fresh build: %s", step, diff)
				}
				if diff := identsDiff(idsF, ids); diff != "" {
					t.Fatalf("step %d: identities differ from fresh build: %s", step, diff)
				}
				for k := range idsF.prev {
					if hd := denseEqual(idsF.prev[k], ids.prev[k], -1); hd >= 0 {
						t.Fatalf("step %d: level %d prev[%d] %d vs %d from fresh build",
							step, k+1, hd, idsF.Prev(k+1, hd), ids.Prev(k+1, hd))
					}
				}
				for i := range pos {
					pos[i] = d.Clamp(pos[i].Add(geom.Vec{X: src.Range(-15, 15), Y: src.Range(-15, 15)}))
				}
			}
			if returned == 0 {
				t.Fatal("no node died and returned; the sequence exercises no ID reuse")
			}
		})
	}
}

// churnGraph builds the unit-disk graph over the alive nodes only, and
// returns it with its giant component.
func churnGraph(pos []geom.Vec, alive []bool, rtx float64) (*topology.Graph, []int) {
	g := topology.NewGraph(len(pos))
	var live []int
	for i := range pos {
		if !alive[i] {
			continue
		}
		live = append(live, i)
		for j := i + 1; j < len(pos); j++ {
			if alive[j] && pos[i].Dist2(pos[j]) <= rtx*rtx {
				g.AddEdge(i, j)
			}
		}
	}
	return g, topology.GiantComponent(g, live)
}

// maintDriver runs the maintainer in the simulation loop's
// double-buffer pattern (Retire the t-2 snapshot, then Maintain).
type maintDriver struct {
	mnt         *OracleMaintainer
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
		if !slices.Equal(la.Nodes, lb.Nodes) {
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
			if !slices.Equal(la.MembersOf(c), lb.MembersOf(c)) {
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
