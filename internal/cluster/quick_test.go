package cluster

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// quickGraph builds a graph over [0, n) from arbitrary bytes.
func quickGraph(n int, raw []byte) *topology.Graph {
	g := topology.NewGraph(n)
	for i := 0; i+1 < len(raw); i += 2 {
		a := int(raw[i]) % n
		b := int(raw[i+1]) % n
		g.AddEdge(a, b)
	}
	return g
}

// TestQuickBuildAlwaysValid: every hierarchy built over an arbitrary
// graph satisfies the structural invariants.
func TestQuickBuildAlwaysValid(t *testing.T) {
	f := func(raw []byte) bool {
		const n = 40
		g := quickGraph(n, raw)
		h := build(g, nodesUpTo(n), Config{})
		return h.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDiffSymmetry: elections in one direction are rejections in
// the other, level by level.
func TestQuickDiffSymmetry(t *testing.T) {
	f := func(rawA, rawB []byte) bool {
		const n = 30
		g1 := quickGraph(n, rawA)
		g2 := quickGraph(n, rawB)
		h1 := build(g1, nodesUpTo(n), Config{})
		h2 := build(g2, nodesUpTo(n), Config{})
		fwd := ComputeDiff(h1, h2)
		rev := ComputeDiff(h2, h1)
		for k, e := range fwd.Elections {
			r := rev.Rejections[k]
			if len(e) != len(r) {
				return false
			}
			for i := range e {
				if e[i] != r[i] {
					return false
				}
			}
		}
		for k, e := range fwd.Rejections {
			r := rev.Elections[k]
			if len(e) != len(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIdentityPartition: logical IDs within one snapshot are
// unique per level (an ID names exactly one cluster).
func TestQuickIdentityPartition(t *testing.T) {
	f := func(rawA, rawB []byte) bool {
		const n = 35
		tr := NewIdentityTracker()
		g1 := quickGraph(n, rawA)
		h1, ids1 := BuildWithIdentities(g1, nodesUpTo(n), Config{}, nil, nil, tr, 0)
		g2 := quickGraph(n, rawB)
		h2, ids2 := BuildWithIdentities(g2, nodesUpTo(n), Config{}, h1, ids1, tr, 1)
		for _, pair := range []struct {
			h   *Hierarchy
			ids *Identities
		}{{h1, ids1}, {h2, ids2}} {
			for k := 1; k <= pair.h.L(); k++ {
				seen := map[uint64]bool{}
				for _, head := range pair.h.LevelNodes(k) {
					id, ok := pair.ids.Logical(k, head)
					if !ok || seen[id] {
						return false
					}
					seen[id] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDescendantsCount: Σ over level-k clusters of descendant
// counts equals |V₀| at every level.
func TestQuickDescendantsCount(t *testing.T) {
	f := func(raw []byte) bool {
		const n = 40
		g := quickGraph(n, raw)
		h := build(g, nodesUpTo(n), Config{})
		for k := 1; k <= h.L(); k++ {
			total := 0
			for _, c := range h.LevelNodes(k) {
				total += len(h.Descendants(k, c))
			}
			if total != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
