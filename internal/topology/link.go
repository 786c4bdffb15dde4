package topology

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/spatial"
)

// LinkModel abstracts the level-0 link predicate: given the current
// node positions, which unordered pairs are connected this scan. The
// unit-disk model of the paper's §1.2 is one implementation; lossy
// radio models (path loss + shadowing with hysteresis) are another.
//
// Determinism contract: BuildInto must produce byte-identical graphs
// (adjacency order and sorted edge list) for the same positions across
// serial and parallel builds, and across fresh and reused destination
// storage. Stateful models must evolve their state identically in all
// of those cases — state may be read during a build but only updated
// from the finished, deterministic edge set.
type LinkModel interface {
	// Name returns the registry key of the model (e.g. "unitdisk").
	Name() string
	// Radius returns the maximum distance at which the model can ever
	// report a link: the grid candidate-scan radius. Pairs farther
	// apart are never examined.
	Radius() float64
	// BuildInto rebuilds the level-0 graph over positions into g (nil
	// allocates; non-nil is Reset and refilled, allocation-free in
	// steady state). idx must already index every node. A nil or
	// single-worker pool builds serially; otherwise the build is
	// sharded over p with byte-identical output.
	BuildInto(g *Graph, n int, pos []geom.Vec, idx *spatial.Grid, p *par.Pool, sc *BuildScratch) *Graph
}

// buildLinksInto is the serial core of every link-model build: the
// grid emits each unordered pair within radius exactly once (row-major
// over owner cells); pairs passing keep (nil = all) land in adjacency
// lists in emission order, and the bulk edge store is then read off
// the finished rows in key order (appendRowEdges). UnitDisk builds are
// this with keep == nil.
func buildLinksInto(g *Graph, n int, pos []geom.Vec, radius float64, idx *spatial.Grid, keep func(a, b int) bool) *Graph {
	if g == nil {
		g = NewGraph(n)
	} else {
		g.Reset(n)
	}
	at := func(i int) geom.Vec { return pos[i] }
	idx.ForEachPair(radius, at, func(a, b int) {
		if keep != nil && !keep(a, b) {
			return
		}
		g.adj[a] = append(g.adj[a], b)
		g.adj[b] = append(g.adj[b], a)
	})
	g.bulk = appendRowEdges(g.bulk, g.adj, 0, n)
	return g
}

// appendRowEdges appends the edge keys owned by rows [lo, hi) of adj
// to dst in ascending order: row a owns its edges to neighbours b > a,
// and every key of row a precedes every key of row a+1, so only each
// row's short run needs ordering — an insertion sort on the keys as
// they are appended. adj must hold no duplicate neighbours.
func appendRowEdges(dst []EdgeKey, adj [][]int, lo, hi int) []EdgeKey {
	for a := lo; a < hi; a++ {
		start := len(dst)
		for _, b := range adj[a] {
			if b <= a {
				continue
			}
			k := MakeEdgeKey(a, b)
			i := len(dst)
			dst = append(dst, k)
			for ; i > start && dst[i-1] > k; i-- {
				dst[i] = dst[i-1]
			}
			dst[i] = k
		}
	}
	return dst
}

// BuildScratch holds the reusable per-shard edge buffers of a sharded
// link build. Not safe for concurrent use by two builds.
type BuildScratch struct {
	shards [][]EdgeKey // per-shard emitted pairs, in scan order
	rows   [][]EdgeKey // per-worker edge keys of its node range
}

// buildLinksIntoPar is buildLinksInto fanned out over pool p. The scan
// is sharded by grid row ranges: each shard enumerates the pairs owned
// by its rows into its own edge buffer (spatial.Grid.ForEachPairRows
// guarantees every pair lands in exactly one shard, in scan order).
// Node-range workers then fill disjoint adjacency rows by walking the
// shard buffers in shard order — reproducing the serial emission order
// exactly — and each reads its rows' edge keys off into its own
// buffer; the buffers, concatenated in worker order, are the sorted
// edge store. The graph is byte-identical to the serial build. A nil
// or single-worker pool falls back to the serial build; sc (nil =
// allocate fresh) supplies the per-shard and per-worker buffers, and
// reusing one across ticks makes the steady-state build
// allocation-free. keep may be invoked concurrently from shard workers
// and must be safe for concurrent calls (read-only state).
func buildLinksIntoPar(
	g *Graph, n int, pos []geom.Vec, radius float64, idx *spatial.Grid,
	p *par.Pool, sc *BuildScratch, keep func(a, b int) bool,
) *Graph {
	if p.Workers() == 1 {
		return buildLinksInto(g, n, pos, radius, idx, keep)
	}
	if g == nil {
		g = NewGraph(n)
	} else {
		g.Reset(n)
	}
	if sc == nil {
		sc = &BuildScratch{}
	}
	shards := par.Shards(p.Workers(), idx.Rows())
	for len(sc.shards) < shards {
		sc.shards = append(sc.shards, nil)
	}
	at := func(i int) geom.Vec { return pos[i] }

	// Phase 1: enumerate surviving pairs per row-range shard.
	p.RunShards(shards, func(_, s int) {
		lo, hi := par.Shard(idx.Rows(), shards, s)
		buf := sc.shards[s][:0]
		idx.ForEachPairRows(radius, lo, hi, at, func(a, b int) {
			if keep != nil && !keep(a, b) {
				return
			}
			buf = append(buf, MakeEdgeKey(a, b))
		})
		sc.shards[s] = buf
	})

	// Phase 2: fill adjacency rows from the emission sequence. Worker
	// w owns the contiguous node range Shard(n, W, w), so all writes
	// are disjoint; walking the shards in order makes each list grow in
	// the serial scan's emission order. The worker then reads its rows'
	// edge keys off, in key order.
	for len(sc.rows) < p.Workers() {
		sc.rows = append(sc.rows, nil)
	}
	p.Run(func(w int) {
		lo, hi := par.Shard(n, p.Workers(), w)
		buf := sc.rows[w][:0]
		for s := 0; s < shards; s++ {
			for _, k := range sc.shards[s] {
				a, b := k.Nodes()
				if a >= lo && a < hi {
					g.adj[a] = append(g.adj[a], b)
				}
				if b >= lo && b < hi {
					g.adj[b] = append(g.adj[b], a)
				}
			}
		}
		sc.rows[w] = appendRowEdges(buf, g.adj, lo, hi)
	})

	// Phase 3: the node ranges ascend with w, so concatenating the
	// workers' keys yields the sorted edge store.
	for w := 0; w < p.Workers(); w++ {
		g.bulk = append(g.bulk, sc.rows[w]...)
	}
	return g
}

// UnitDisk is the paper's link model: a link exists iff the pair is
// within RTX.
type UnitDisk struct {
	RTX float64 // transmission radius, m
}

// NewUnitDisk returns the unit-disk link model with radius rtx.
func NewUnitDisk(rtx float64) UnitDisk {
	if rtx <= 0 {
		panic("topology: unit-disk radius must be positive")
	}
	return UnitDisk{RTX: rtx}
}

// Name returns "unitdisk".
func (u UnitDisk) Name() string { return "unitdisk" }

// Radius returns RTX.
func (u UnitDisk) Radius() float64 { return u.RTX }

// BuildInto rebuilds the unit-disk graph (serial or sharded).
func (u UnitDisk) BuildInto(g *Graph, n int, pos []geom.Vec, idx *spatial.Grid, p *par.Pool, sc *BuildScratch) *Graph {
	return buildLinksIntoPar(g, n, pos, u.RTX, idx, p, sc, nil)
}

// shadowGamma decorrelates per-pair shadowing streams: the edge key is
// spread by a splitmix64-style odd multiplier before seeding, so
// adjacent keys do not produce adjacent stream states.
const shadowGamma = 0x9E3779B97F4A7C15

// The threshold table of the quick predicate: one node per 1/shadowSteps
// of the clamped standard-normal draw z ∈ [−shadowClamp, shadowClamp],
// plus one node past the top for the rounded-up upper index. Tabulated
// thresholds are widened by the relative margin shadowSlack, which
// covers every rounding step between a node's value and the exact
// predicate's (the bounds of −ln r, the square roots, the node index,
// Exp and the products), with orders of magnitude to spare.
const (
	shadowClamp = 3
	shadowSteps = 64
	shadowNodes = 2*shadowClamp*shadowSteps + 2
	shadowSlack = 0x1p-30
)

// shadowBound holds a pair's make and break d² thresholds.
type shadowBound struct{ mk, br float64 }

// LogShadow is a log-distance path-loss link model with lognormal
// shadowing and RSSI hysteresis. Received power at distance d falls as
// 10·η·log10(d/RTX) dB below the nominal sensitivity threshold plus a
// per-pair shadowing offset X ~ N(0, σ²) dB (clamped to ±3σ), constant
// for the pair's lifetime (deterministic in the pair key and the model
// seed, and symmetric by construction: link(a,b) == link(b,a)).
//
// Hysteresis: the margin M dB is split around the nominal threshold,
// which in the distance domain gives each pair two radii
//
//	d_make  = RTX · 10^((x - M/2)/(10η))   (link forms below this)
//	d_break = RTX · 10^((x + M/2)/(10η))   (link drops above this)
//
// with x the pair's shadowing offset in dB (sign chosen so positive x
// extends range). d_make < d_break whenever M > 0, so a pair sitting
// in the dead band keeps its previous state and a threshold-straddling
// RSSI cannot flap the link on and off every scan.
//
// The model keeps per-pair link state, updated only from the
// finished edge set of each build, never during one, so serial and
// parallel builds (which may evaluate pairs in different orders and on
// different goroutines) read an identical, frozen snapshot.
type LogShadow struct {
	rtx    float64 // nominal (unshadowed, zero-margin) radius, m
	eta    float64 // path-loss exponent η
	sigma  float64 // shadowing std dev σ, dB
	margin float64 // hysteresis margin M, dB
	seed   uint64  // shadowing stream seed

	rtx2   float64 // RTX²
	dscale float64 // ln10/(5η): dB -> d² exponent scale
	mHi    float64 // exp(dscale · M/2): break/make threshold² ratio, halved
	radius float64 // max d_break over the clamped shadow range

	// lower[j] and upper[j] bound the thresholds of every draw z at or
	// above, respectively at or below, node j (see up). With σ = 0
	// each holds the one exact threshold pair.
	lower, upper []shadowBound

	linked []EdgeKey // pairs up as of the last finished build, ascending
}

// NewLogShadow builds the lossy link model. rtx is the nominal radius
// (where the unshadowed received power crosses the sensitivity
// threshold), eta the path-loss exponent (> 0), sigmaDB the shadowing
// standard deviation in dB (>= 0), marginDB the hysteresis margin in
// dB (>= 0), and seed the per-pair shadowing stream seed.
func NewLogShadow(rtx, eta, sigmaDB, marginDB float64, seed uint64) *LogShadow {
	if rtx <= 0 {
		panic("topology: logshadow radius must be positive")
	}
	if eta <= 0 {
		panic("topology: logshadow path-loss exponent must be positive")
	}
	if sigmaDB < 0 || marginDB < 0 {
		panic("topology: logshadow sigma and margin must be non-negative")
	}
	m := &LogShadow{
		rtx: rtx, eta: eta, sigma: sigmaDB, margin: marginDB, seed: seed,
		rtx2:   rtx * rtx,
		dscale: math.Ln10 / (5 * eta),
	}
	m.mHi = math.Exp(m.dscale * marginDB / 2)
	m.radius = rtx * math.Pow(10, (3*sigmaDB+marginDB/2)/(10*eta))
	m.buildTable()
	return m
}

// buildTable fills the threshold bounds. With σ = 0 the offset is ±0,
// so the one node is the predicate's own arithmetic and exact. Otherwise
// node j sits at z_j = j/shadowSteps − shadowClamp; its thresholds are
// computed as the predicate computes them, then moved outward by
// shadowSlack and one ulp. If any node's Exp or threshold leaves the
// normal float range, relative error bounds no longer hold and every
// node is made undecidable, so each pair takes the exact path.
func (m *LogShadow) buildTable() {
	if m.sigma <= 0 {
		e := shadowBound{mk: m.rtx2 / m.mHi, br: m.rtx2 * m.mHi}
		m.lower, m.upper = []shadowBound{e}, []shadowBound{e}
		return
	}
	normal := func(x float64) bool { return x >= 0x1p-1000 && x <= 0x1p1000 }
	m.lower = make([]shadowBound, shadowNodes)
	m.upper = make([]shadowBound, shadowNodes)
	ok := true
	for j := range m.lower {
		z := float64(j)/shadowSteps - shadowClamp
		ex := math.Exp(m.dscale * (z * m.sigma))
		e := m.rtx2 * ex
		mk, br := e/m.mHi, e*m.mHi
		ok = ok && normal(ex) && normal(mk) && normal(br)
		down, up := 1-shadowSlack, 1+shadowSlack
		m.lower[j] = shadowBound{math.Nextafter(mk*down, 0), math.Nextafter(br*down, 0)}
		m.upper[j] = shadowBound{math.Nextafter(mk*up, math.Inf(1)), math.Nextafter(br*up, math.Inf(1))}
	}
	if !ok {
		for j := range m.lower {
			m.lower[j] = shadowBound{-1, -1}
			m.upper[j] = shadowBound{math.Inf(1), math.Inf(1)}
		}
	}
}

// Name returns "logshadow".
func (m *LogShadow) Name() string { return "logshadow" }

// Radius returns the largest possible break distance — RTX scaled by
// the most favorable clamped shadow plus the upper hysteresis margin.
// The grid candidate scan uses this, so no linkable pair escapes it.
func (m *LogShadow) Radius() float64 { return m.radius }

// shadow returns the pair's deterministic shadowing offset in dB:
// a standard normal drawn from a stack-local rng.Source seeded by
// (seed, key), clamped to ±3, scaled by σ. Symmetric in the pair by
// construction (EdgeKey is canonical) and allocation-free.
func (m *LogShadow) shadow(k EdgeKey) float64 {
	s := rng.NewLocal(m.seed ^ uint64(k)*shadowGamma)
	x := s.Norm()
	if x > shadowClamp {
		x = shadowClamp
	} else if x < -shadowClamp {
		x = -shadowClamp
	}
	return x * m.sigma
}

// shadowNode returns the table node at or below the clamped draw z.
func shadowNode(z float64) int {
	if z > shadowClamp {
		z = shadowClamp
	} else if z < -shadowClamp {
		z = -shadowClamp
	}
	return int((z + shadowClamp) * shadowSteps)
}

// shadowRange returns table nodes lo < hi that bracket the clamped draw
// z = u·√(−2 ln r / r) that rng.Source.Norm makes of the polar point
// (u, ·, r), without the log: on (0, 1) the log-mean inequalities give
// 2(1−r)/(1+r) ≤ −ln r ≤ (1−r)/√r.
func shadowRange(u, r float64) (lo, hi int) {
	w := 1 - r
	fLo := math.Sqrt(4 * w / (r * (1 + r)))
	fHi := math.Sqrt(2 * w / (r * math.Sqrt(r)))
	zLo, zHi := u*fLo, u*fHi
	if u < 0 {
		zLo, zHi = zHi, zLo
	}
	return shadowNode(zLo), shadowNode(zHi) + 1
}

// up evaluates the hysteresis predicate for one candidate pair at
// squared distance d2 against the state frozen at the last build,
// exactly as upExact does. Most pairs are settled from bounds on the
// pair's threshold, which only need the two uniforms of its draw:
// beyond every break threshold the bounds allow, the pair is down;
// inside every make threshold, it is up; otherwise the state is read
// and d2 tested against that state's bound. Only a pair that is still
// undecided pays for the log, the exp and the exact compare. Safe for
// concurrent calls: it only reads.
func (m *LogShadow) up(d2 float64, k EdgeKey) bool {
	lo, hi := 0, 0
	if m.sigma > 0 {
		s := rng.NewLocal(m.seed ^ uint64(k)*shadowGamma)
		u, _, r := s.Polar()
		lo, hi = shadowRange(u, r)
	}
	if d2 > m.upper[hi].br {
		return false
	}
	if d2 <= m.lower[lo].mk {
		return true
	}
	linked := m.isLinked(k)
	if linked {
		if d2 <= m.lower[lo].br {
			return true
		}
	} else if d2 > m.upper[hi].mk {
		return false
	}
	return m.upExact(d2, k, linked)
}

// upExact is the plain hysteresis predicate: the pair's d² threshold
// for the given state, compared with d2.
func (m *LogShadow) upExact(d2 float64, k EdgeKey, linked bool) bool {
	t := m.exact(k)
	if linked {
		return d2 <= t.br
	}
	return d2 <= t.mk
}

// exact returns the pair's make and break d² thresholds from its full
// shadow draw.
func (m *LogShadow) exact(k EdgeKey) shadowBound {
	e := m.rtx2 * math.Exp(m.dscale*m.shadow(k))
	return shadowBound{mk: e / m.mHi, br: e * m.mHi}
}

// isLinked reports whether k was up at the last finished build.
func (m *LogShadow) isLinked(k EdgeKey) bool {
	_, ok := slices.BinarySearch(m.linked, k)
	return ok
}

// BuildInto rebuilds the lossy graph (serial or sharded) and then
// refreshes the hysteresis state from the finished edge set, whose
// store is already in key order.
func (m *LogShadow) BuildInto(g *Graph, n int, pos []geom.Vec, idx *spatial.Grid, p *par.Pool, sc *BuildScratch) *Graph {
	keep := func(a, b int) bool {
		return m.up(pos[a].Dist2(pos[b]), MakeEdgeKey(a, b))
	}
	g = buildLinksIntoPar(g, n, pos, m.radius, idx, p, sc, keep)
	m.linked = append(m.linked[:0], g.bulk...)
	return g
}

// Thresholds reports the pair's make/break distances (m), for tests
// and diagnostics.
func (m *LogShadow) Thresholds(a, b int) (dMake, dBreak float64) {
	x := m.shadow(MakeEdgeKey(a, b))
	dMake = m.rtx * math.Pow(10, (x-m.margin/2)/(10*m.eta))
	dBreak = m.rtx * math.Pow(10, (x+m.margin/2)/(10*m.eta))
	return
}

// Linked reports the pair's hysteresis state as of the last build, for
// tests and diagnostics.
func (m *LogShadow) Linked(a, b int) bool {
	return m.isLinked(MakeEdgeKey(a, b))
}

// compile-time interface checks
var (
	_ LinkModel = UnitDisk{}
	_ LinkModel = (*LogShadow)(nil)
)

// String formats the model for diagnostics.
func (m *LogShadow) String() string {
	return fmt.Sprintf("logshadow(rtx=%g, eta=%g, sigma=%gdB, margin=%gdB)", m.rtx, m.eta, m.sigma, m.margin)
}
