// Package cluster implements the recursive clustered hierarchy of the
// paper (§2): the asynchronous Linked Cluster Algorithm (ALCA, Baker &
// Ephremides [1]) applied recursively to produce an L-level hierarchy,
// plus snapshot diffing that extracts the election / rejection /
// migration / cluster-link events whose frequencies Sections 4 and 5
// of the paper analyze.
//
// Election semantics (paper §2.2): a level-k node u elects as its
// clusterhead the highest-ID node in its closed level-k neighborhood;
// v is a level-k clusterhead (hence a level-(k+1) node) iff at least
// one node elected it. A node that is itself a clusterhead belongs to
// its own cluster even if it elected a higher-ID neighbor.
//
// The simulator recomputes the clustering fixed point after every link
// scan ("oracle ALCA") and diffs consecutive snapshots; see DESIGN.md
// for why this observes the same event stream as a converged
// asynchronous execution.
package cluster

import (
	"maps"

	"repro/internal/topology"
)

// Elector chooses a clusterhead for every node of one level.
type Elector interface {
	// Elect appends, for each node of nodes in order, the elected
	// clusterhead (possibly the node itself) to dst and returns the
	// extended slice: result[i] is the head of nodes[i]. nodes is
	// sorted ascending; g is the level-k graph; prevHead is the node's
	// clusterhead in the previous snapshot at this level (or -1),
	// enabling hysteresis variants. Callers reuse dst's capacity across
	// ticks, keeping elections allocation-free in steady state.
	Elect(dst []int, nodes []int, g *topology.Graph, prevHead func(int) int) []int

	// Name identifies the elector for reports.
	Name() string
}

// MemorylessLCA is the paper's election rule: always elect the
// highest-ID node of the closed neighborhood. This is the rule under
// which the paper's Fig. 3 state-transition model and the §5 frequency
// analysis are formulated.
type MemorylessLCA struct{}

// Name implements Elector.
func (MemorylessLCA) Name() string { return "lca" }

// Elect implements Elector.
func (MemorylessLCA) Elect(dst []int, nodes []int, g *topology.Graph, prevHead func(int) int) []int {
	for _, u := range nodes {
		dst = append(dst, argmaxClosed(u, g))
	}
	return dst
}

// StickyLCA is the hysteresis variant used as ablation A1: a node
// keeps its previously elected clusterhead for as long as that head
// remains in its closed neighborhood, and only re-elects (by max ID)
// when the link to the head is lost. This is closer to deployed LCA
// implementations and damps election churn; comparing overhead under
// the two electors isolates how much of γ is election-induced.
type StickyLCA struct{}

// Name implements Elector.
func (StickyLCA) Name() string { return "sticky-lca" }

// Elect implements Elector.
func (StickyLCA) Elect(dst []int, nodes []int, g *topology.Graph, prevHead func(int) int) []int {
	for _, u := range nodes {
		if prev := prevHead(u); prev >= 0 {
			if prev == u {
				// Was its own head: keep only while still locally
				// maximal-eligible, i.e. re-evaluate below.
			} else if g.HasEdge(u, prev) {
				dst = append(dst, prev)
				continue
			}
		}
		dst = append(dst, argmaxClosed(u, g))
	}
	return dst
}

// ElectCtx is the richer election context available to stateful
// electors during tracked builds: the virtual time, the level, and the
// logical identity of each participating node (relabel-proof keys for
// hysteresis state).
type ElectCtx struct {
	Time  float64
	Level int
	Nodes []int
	Graph *topology.Graph
	// PrevHead returns, for a node, the current physical carrier of
	// the head it elected in the previous snapshot (-1 if none).
	PrevHead func(int) int
	// LogicalOf returns the stable identity of a level-k node in this
	// snapshot (the node ID itself at level 0).
	LogicalOf func(int) uint64
}

// StatefulElector is an Elector that needs the tracked-build context
// (time, logical identities). BuildWithIdentities prefers ElectTracked
// when implemented.
type StatefulElector interface {
	Elector
	// ElectTracked is Elect with the tracked-build context, in the same
	// append-to-dst form: result[i] is the head of ctx.Nodes[i].
	ElectTracked(dst []int, ctx *ElectCtx) []int
}

// DebouncedLCA is StickyLCA plus a hysteresis timer: a node that loses
// the link to its current clusterhead *retains the affiliation* for up
// to Grace seconds before re-electing, absorbing border flaps (the
// cluster-maintenance damping used by hierarchical MANET systems such
// as MMWN [13]). This is the stabilized-clustering regime under which
// the paper's Θ(1/h_k) event-frequency premises hold: a cluster
// changes parents only after *sustained* separation, which requires
// Θ(h_k) of physical motion.
//
// Hierarchies built with a positive Grace can transiently contain
// members with no link to their head; use Config.Reach = -1 to skip
// the reach check in Validate.
type DebouncedLCA struct {
	Grace float64
	// LevelScale grows the grace period geometrically with the level:
	// grace(k) = Grace·LevelScale^k (0 or 1 = constant grace). Setting
	// LevelScale ≈ √α makes the hysteresis span scale like h_k, which
	// is exactly the paper's Θ(h_k)-displacement premise for level-k
	// reorganization events (§5.3).
	LevelScale float64
	// lost[(level, logical node)] = time the link to the current head
	// was first observed missing.
	lost map[debKey]float64
}

type debKey struct {
	level   int
	logical uint64
}

// NewDebouncedLCA returns a debounced elector with the given grace
// period in seconds.
func NewDebouncedLCA(grace float64) *DebouncedLCA {
	return &DebouncedLCA{Grace: grace, lost: map[debKey]float64{}}
}

// Name implements Elector.
func (d *DebouncedLCA) Name() string { return "debounced-lca" }

// Elect implements Elector (used in untracked builds, where no timing
// context exists): behaves like StickyLCA.
func (d *DebouncedLCA) Elect(dst []int, nodes []int, g *topology.Graph, prevHead func(int) int) []int {
	return StickyLCA{}.Elect(dst, nodes, g, prevHead)
}

// ElectTracked implements StatefulElector.
func (d *DebouncedLCA) ElectTracked(dst []int, ctx *ElectCtx) []int {
	if d.lost == nil {
		d.lost = map[debKey]float64{}
	}
	grace := d.Grace
	//lint:ignore floateq 1 is the exact no-scaling sentinel, never computed
	if d.LevelScale > 0 && d.LevelScale != 1 {
		for i := 0; i < ctx.Level; i++ {
			grace *= d.LevelScale
		}
	}
	for _, u := range ctx.Nodes {
		key := debKey{level: ctx.Level, logical: ctx.LogicalOf(u)}
		prev := ctx.PrevHead(u)
		switch {
		case prev >= 0 && (prev == u || ctx.Graph.HasEdge(u, prev)):
			// Head reachable: keep it.
			dst = append(dst, prev)
			delete(d.lost, key)
		case prev >= 0:
			// Head's cluster lives but the link is down: hold on for
			// the grace period before re-electing.
			since, ok := d.lost[key]
			if !ok {
				since = ctx.Time
				d.lost[key] = since
			}
			if ctx.Time-since <= grace {
				dst = append(dst, prev)
				continue
			}
			delete(d.lost, key)
			dst = append(dst, argmaxClosed(u, ctx.Graph))
		default:
			// No previous head (first election or the head's cluster
			// died): elect afresh.
			delete(d.lost, key)
			dst = append(dst, argmaxClosed(u, ctx.Graph))
		}
	}
	return dst
}

// argmaxClosed returns the highest ID in u's closed neighborhood.
func argmaxClosed(u int, g *topology.Graph) int {
	best := u
	for _, v := range g.Neighbors(u) {
		if v > best {
			best = v
		}
	}
	return best
}

// CloneableElector is an Elector whose full hysteresis state can be
// duplicated. Each simulation run elects with its own clone, so runs
// that share a config template never share hysteresis state.
// Stateless electors return themselves.
type CloneableElector interface {
	Elector
	CloneElector() Elector
}

// CloneElector implements CloneableElector (stateless).
func (m MemorylessLCA) CloneElector() Elector { return m }

// CloneElector implements CloneableElector (stateless).
func (s StickyLCA) CloneElector() Elector { return s }

// CloneElector implements CloneableElector: the grace-timer map is
// deep-copied so elections on the clone cannot disturb the original.
func (d *DebouncedLCA) CloneElector() Elector {
	return &DebouncedLCA{Grace: d.Grace, LevelScale: d.LevelScale, lost: maps.Clone(d.lost)}
}

var (
	_ Elector          = MemorylessLCA{}
	_ Elector          = StickyLCA{}
	_ StatefulElector  = (*DebouncedLCA)(nil)
	_ CloneableElector = MemorylessLCA{}
	_ CloneableElector = StickyLCA{}
	_ CloneableElector = (*DebouncedLCA)(nil)
)
