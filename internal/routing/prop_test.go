package routing_test

import (
	"testing"

	"repro/internal/invariant/prop"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/simnet"
)

// TestHierPathPropertiesOnCorpus replays the shrunk fuzz corpus
// scenarios and, on every tick, checks the Router's core contract on
// sampled pairs: HierPath output always passes ValidatePath, agrees
// with the buffered HierPathLen, and is never shorter than the true
// shortest path (hierarchical routing pays stretch, never gains).
func TestHierPathPropertiesOnCorpus(t *testing.T) {
	corpus, err := prop.ReadCorpus("../invariant/prop/testdata/regress")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Skip("no regression corpus")
	}
	for name, repro := range corpus {
		repro := repro
		t.Run(name, func(t *testing.T) {
			sc := repro.Scenario
			cfg := sc.Config()
			cfg.CheckLevel = "" // invariant checking is prop's own test
			src := rng.NewRoot(sc.Seed).Stream("routing-prop")
			var router *routing.Router
			checked := 0
			cfg.Observer = func(ev simnet.ObsEvent) {
				nodes := ev.Hierarchy.LevelNodes(0)
				if len(nodes) < 2 {
					return
				}
				if router == nil {
					router = routing.NewRouter(ev.Hierarchy)
				} else {
					router.Rebind(ev.Hierarchy)
				}
				for i := 0; i < 16; i++ {
					q := nodes[src.Intn(len(nodes))]
					d := nodes[src.Intn(len(nodes))]
					p := router.HierPath(q, d)
					n := router.HierPathLen(q, d)
					if p == nil {
						if n != -1 {
							t.Errorf("t=%v: HierPath(%d,%d) = nil but HierPathLen = %d", ev.Time, q, d, n)
						}
						continue
					}
					checked++
					if err := router.ValidatePath(p, q, d); err != nil {
						t.Errorf("t=%v: HierPath(%d,%d): %v", ev.Time, q, d, err)
					}
					if n != len(p)-1 {
						t.Errorf("t=%v: HierPathLen(%d,%d) = %d, HierPath has %d hops", ev.Time, q, d, n, len(p)-1)
					}
					flat := router.FlatPathLen(q, d)
					if flat < 0 {
						t.Errorf("t=%v: hier path exists but (%d,%d) flat-unreachable", ev.Time, q, d)
					} else if n < flat {
						t.Errorf("t=%v: HierPathLen(%d,%d) = %d < FlatPathLen = %d", ev.Time, q, d, n, flat)
					}
				}
			}
			if _, err := simnet.Run(cfg); err != nil {
				// The single-node corpus entry pins the config-rejection
				// path; there is nothing to route.
				t.Skipf("config rejected: %v", err)
			}
			if t.Failed() {
				t.FailNow()
			}
			t.Logf("validated %d hierarchical paths", checked)
		})
	}
}
