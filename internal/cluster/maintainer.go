package cluster

import "repro/internal/topology"

// MaintainInput is one tick's input to OracleMaintainer.Maintain: the
// fresh level-0 graph, the covered (giant-component) node set, and the
// previous snapshot the new one evolves from.
type MaintainInput struct {
	// G0 is the current level-0 graph (full ID space).
	G0 *topology.Graph
	// PrevG0 is the previous tick's level-0 graph; nil on the first
	// build. Nothing reads it: the field stays only because the
	// bench/ replica, frozen with the benchmark, sets it (ROADMAP
	// item 6).
	PrevG0 *topology.Graph
	// Nodes is the sorted giant-component node set to cover.
	Nodes []int
	// PrevH / PrevIDs are the previous snapshot (nil on first build).
	PrevH   *Hierarchy
	PrevIDs *Identities
	// Now is the virtual time of this tick (grace-period electors).
	Now float64
}

// DirtyClusters is an empty placeholder. It stays only because the
// bench/ replica, frozen with the benchmark, passes it to
// lm.Selector.UpdateTableIntoPar (ROADMAP item 6).
type DirtyClusters struct{}

// OracleMaintainer produces the tick-t hierarchy snapshot from the
// tick-t topology and the tick-(t-1) snapshot: every Maintain runs
// BuildWithIdentitiesArena from scratch over an internal arena. The
// caller hands back retired snapshots via Retire (two-generation
// contract, exactly like Arena.Recycle). The bench/ replica (ROADMAP
// item 6) calls NewOracleMaintainer, Maintain, Retire and DirtyClusters.
type OracleMaintainer struct {
	cfg   Config
	tr    *IdentityTracker
	arena *Arena
}

// NewOracleMaintainer returns a maintainer electing with cfg and
// naming clusters through tr.
func NewOracleMaintainer(cfg Config, tr *IdentityTracker) *OracleMaintainer {
	return &OracleMaintainer{cfg: cfg, tr: tr, arena: NewArena()}
}

// Maintain builds the snapshot for in.
func (m *OracleMaintainer) Maintain(in *MaintainInput) (*Hierarchy, *Identities) {
	return BuildWithIdentitiesArena(
		m.arena, in.G0, in.Nodes, m.cfg, in.PrevH, in.PrevIDs, m.tr, in.Now)
}

// Retire hands back a snapshot that is no longer referenced (the t-2
// snapshot in a double-buffered loop). nil-safe arguments.
func (m *OracleMaintainer) Retire(h *Hierarchy, ids *Identities) {
	m.arena.Recycle(h, ids)
}

// DirtyClusters returns nil. It stays only because the bench/
// replica, frozen with the benchmark, calls it (ROADMAP item 6).
func (m *OracleMaintainer) DirtyClusters() *DirtyClusters { return nil }
