package cluster

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/topology"
)

// TestRecycledStorageMatchesFresh drives the arena-backed maintainers
// through node churn — nodes die and return, so IDs leave and rejoin
// every level, as nodes and as cluster heads — and requires every
// tick's snapshot to equal a build from fresh storage. The dense
// election slices and identity rows are compared over every ID, so an
// entry that a sparse reset left behind in recycled storage shows up
// as a difference even when no node list names it.
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
			loops := map[string]*maintDriver{
				"oracle":      {mnt: NewOracleMaintainer(tc.mk(), NewIdentityTracker())},
				"incremental": {mnt: NewIncrementalMaintainer(tc.mk(), NewIdentityTracker())},
			}
			var hF *Hierarchy
			var idsF *Identities
			var prevG *topology.Graph
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
				var events []topology.LinkEvent
				if prevG != nil {
					events = topology.DiffEdges(prevG, g)
				}
				now := float64(step)
				hF, idsF = BuildWithIdentities(g, nodes, cfgFresh, hF, idsF, trFresh, now)
				for _, name := range []string{"oracle", "incremental"} {
					in := MaintainInput{G0: g, PrevG0: prevG, Nodes: nodes, Events: events, Now: now}
					h, ids := loops[name].tick(in)
					if diff := hierDiff(hF, h); diff != "" {
						t.Fatalf("step %d %s: hierarchy differs from fresh build: %s", step, name, diff)
					}
					if diff := identsDiff(idsF, ids); diff != "" {
						t.Fatalf("step %d %s: identities differ from fresh build: %s", step, name, diff)
					}
				}
				for i := range pos {
					pos[i] = d.Clamp(pos[i].Add(geom.Vec{X: src.Range(-15, 15), Y: src.Range(-15, 15)}))
				}
				prevG = g
			}
			if returned == 0 {
				t.Fatal("no node died and returned; the sequence exercises no ID reuse")
			}
			if st := loops["incremental"].mnt.(*IncrementalMaintainer).Stats(); st.Incremental == 0 {
				t.Fatalf("incremental fast path never engaged (%+v)", st)
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
