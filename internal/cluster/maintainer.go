package cluster

import "repro/internal/topology"

// Hierarchy maintenance strategies. The simulation loop historically
// rebuilt the full ALCA fixed point from scratch every scan tick
// ("oracle" maintenance): correct by construction but Θ(N·L) per tick
// regardless of how little the topology moved. The Maintainer interface
// abstracts that per-tick step so an incremental engine can advance the
// previous snapshot by the tick's link-event delta instead — see
// IncrementalMaintainer — while producing byte-identical hierarchies,
// identities, and election side effects.

// MaintainInput is one tick's input to a Maintainer: the fresh level-0
// graph, the covered (giant-component) node set, and the previous
// snapshot the new one evolves from.
type MaintainInput struct {
	// G0 is the current level-0 graph (full ID space).
	G0 *topology.Graph
	// PrevG0 is the previous tick's level-0 graph; nil on the first
	// build. It must still be alive (the loop's double buffer
	// guarantees this) — incremental maintenance walks prev
	// neighborhoods during lifted-edge accounting.
	PrevG0 *topology.Graph
	// Nodes is the sorted giant-component node set to cover.
	Nodes []int
	// Events is the level-0 link delta from PrevG0 to G0,
	// deterministically ordered (downs then ups, each ascending by edge
	// key) — the output order of topology.DiffScratch.Diff. nil when no
	// delta source exists (first tick, or a caller that never computed
	// one); incremental maintenance then falls back to a full rebuild.
	Events []topology.LinkEvent
	// PrevH / PrevIDs are the previous snapshot (nil on first build).
	PrevH   *Hierarchy
	PrevIDs *Identities
	// Now is the virtual time of this tick (grace-period electors).
	Now float64
}

// Maintainer produces the tick-t hierarchy snapshot from the tick-t
// topology and the tick-(t-1) snapshot. Implementations own their
// snapshot storage: the caller hands back retired snapshots via Retire
// (two-generation contract, exactly like Arena.Recycle).
type Maintainer interface {
	// Maintain builds the snapshot for in. The result must be
	// byte-identical to BuildWithIdentities over the same input,
	// including identity assignment order (fresh-ID sequence) and
	// elector state evolution.
	Maintain(in *MaintainInput) (*Hierarchy, *Identities)
	// Retire hands back a snapshot that is no longer referenced (the
	// t-2 snapshot in a double-buffered loop). nil-safe arguments.
	Retire(h *Hierarchy, ids *Identities)
	// DirtyClusters returns a conservative superset of the logical
	// clusters whose member-key sets changed in the last Maintain,
	// with dirtiness propagated to all ancestors in both snapshots —
	// the contract of the LM update's dirty-subtree analysis. nil means
	// "unknown": the LM update computes its own set.
	DirtyClusters() *DirtyClusters
	// Name identifies the maintainer for reports ("oracle",
	// "incremental").
	Name() string
}

// DirtyClusters is the maintainer-exported dirty-subtree set consumed
// by lm.UpdateTableInto: ByLevel[k][id] marks the logical level-k
// cluster id as having a changed member-key set (or an ancestor chain
// passing through one). Index 0 is unused (level-0 "clusters" are the
// nodes themselves).
type DirtyClusters struct {
	ByLevel []map[uint64]bool
}

// reset clears the set and sizes it for maxLevel levels.
func (d *DirtyClusters) reset(maxLevel int) {
	for len(d.ByLevel) <= maxLevel {
		d.ByLevel = append(d.ByLevel, map[uint64]bool{})
	}
	d.ByLevel = d.ByLevel[:maxLevel+1]
	for _, m := range d.ByLevel {
		clear(m)
	}
}

// mark records the level-k logical cluster as dirty; it reports
// whether the mark was new.
func (d *DirtyClusters) mark(k int, id uint64) bool {
	if k < 1 || k >= len(d.ByLevel) {
		return false
	}
	if d.ByLevel[k][id] {
		return false
	}
	d.ByLevel[k][id] = true
	return true
}

// OracleMaintainer is full-rebuild maintenance: every Maintain runs
// BuildWithIdentitiesArena from scratch over an internal arena. This is
// the reference semantics every other maintainer must reproduce.
type OracleMaintainer struct {
	cfg   Config
	tr    *IdentityTracker
	arena *Arena
}

// NewOracleMaintainer returns an oracle maintainer electing with cfg
// and naming clusters through tr.
func NewOracleMaintainer(cfg Config, tr *IdentityTracker) *OracleMaintainer {
	return &OracleMaintainer{cfg: cfg, tr: tr, arena: NewArena()}
}

// Maintain implements Maintainer.
//
//manet:hotpath
func (m *OracleMaintainer) Maintain(in *MaintainInput) (*Hierarchy, *Identities) {
	//lint:ignore hotpath elector per-level head maps and closures, counted in the tick alloc budget
	return BuildWithIdentitiesArena(
		m.arena, in.G0, in.Nodes, m.cfg, in.PrevH, in.PrevIDs, m.tr, in.Now)
}

// Retire implements Maintainer.
//
//manet:hotpath
func (m *OracleMaintainer) Retire(h *Hierarchy, ids *Identities) {
	m.arena.Recycle(h, ids)
}

// DirtyClusters implements Maintainer: the oracle has no delta
// knowledge, so the LM update computes its own dirty set.
func (m *OracleMaintainer) DirtyClusters() *DirtyClusters { return nil }

// Name implements Maintainer.
func (m *OracleMaintainer) Name() string { return "oracle" }

var _ Maintainer = (*OracleMaintainer)(nil)
