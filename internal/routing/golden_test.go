package routing

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/cluster"
)

var update = flag.Bool("update", false, "rewrite testdata/router_golden.json from the current code")

const routerGoldenPath = "testdata/router_golden.json"

// routerCell is one stored route measurement.
type routerCell struct {
	S       int     `json:"s"`
	D       int     `json:"d"`
	HierLen int     `json:"hier_len"`
	Stretch float64 `json:"stretch"`
}

// routerGoldenCells measures HierPathLen and Stretch over a fixed pair
// list on a static N=256 tracked hierarchy. Hierarchical routes follow
// a BFS over the level graphs and the member lists, so they pin the
// adjacency and member order the hierarchy builder produces.
func routerGoldenCells(t *testing.T) []routerCell {
	t.Helper()
	h0, g := randomNet(256, 500, 100, 7)
	h, _ := cluster.BuildWithIdentities(g, h0.LevelNodes(0), cluster.Config{}, nil, nil, cluster.NewIdentityTracker(), 0)
	if h.L() < 3 {
		t.Fatalf("hierarchy has %d levels; the cell needs at least 3", h.L())
	}
	nodes := h.LevelNodes(0)
	r := NewRouter(h)
	var out []routerCell
	for i := 0; i < 96; i++ {
		s := nodes[(i*37)%len(nodes)]
		d := nodes[(i*101+13)%len(nodes)]
		if s == d {
			continue
		}
		out = append(out, routerCell{S: s, D: d, HierLen: r.HierPathLen(s, d), Stretch: r.Stretch(s, d)})
	}
	return out
}

// TestRouterGolden pins hierarchical route lengths and stretch against
// a stored reference. Regenerate (go test ./internal/routing -run
// TestRouterGolden -update) only for an intended routing change.
func TestRouterGolden(t *testing.T) {
	got := routerGoldenCells(t)
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(routerGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(routerGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []routerCell
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d pairs measured, %d stored", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pair %d: got %+v, stored %+v", i, got[i], want[i])
		}
	}
}
