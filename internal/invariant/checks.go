package invariant

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/topology"
)

// Checks returns the default check catalog, ordered cheap-to-expensive
// so a corrupt snapshot is named by the most specific structural check
// before the heavyweight differentials run. The Guards strings anchor
// each check to the paper claim it protects; DESIGN.md carries the
// full catalog table.
func Checks() []Check {
	return []Check{
		{
			Name:   "hierarchy-partition",
			Guards: "§2.1–2.2: clusters partition every level (premise of the c_k aggregation, Eq. 2)",
			Fn:     checkPartition,
		},
		{
			Name:   "hierarchy-reach",
			Guards: "Fig. 2, Eq. 10: every member within h_k hops of its clusterhead",
			Fn:     checkReach,
		},
		{
			Name:   "hierarchy-compression",
			Guards: "§2.2: each elected level strictly compresses, so L = Θ(log |V|)",
			Fn:     checkCompression,
		},
		{
			Name:   "alca-state",
			Guards: "Fig. 3: head state equals its elector count, so transitions decompose into unit steps",
			Fn:     checkALCAState,
		},
		{
			Name:   "diff-reconcile-nodes",
			Guards: "§4 events iii–vii: elections/rejections turn each prev level node set into next",
			Fn:     checkDiffNodes,
		},
		{
			Name:   "diff-reconcile-links",
			Guards: "§4 events i–ii vs iii–vii: link events reconcile the level graphs and classify correctly",
			Fn:     checkDiffLinks,
		},
		{
			Name:   "diff-reconcile-members",
			Guards: "§5: membership changes applied to prev ancestor chains reproduce next",
			Fn:     checkDiffMembers,
		},
		{
			Name:   "diff-reconcile-state",
			Guards: "Fig. 3 / Eq. 15a: recorded state deltas are exactly the persistent-head state changes",
			Fn:     checkDiffState,
		},
		{
			Name:   "table-owners",
			Guards: "§3.2: exactly one owner row per node; owners are exactly the covered (giant) nodes",
			Fn:     checkTableOwners,
		},
		{
			Name:   "table-chains",
			Guards: "§4: each owner's logical chain matches the identity-tracked ancestor chain",
			Fn:     checkTableChains,
		},
		{
			Name:   "table-no-dangling",
			Guards: "§4 handoff completeness: every server entry points at a live owner node",
			Fn:     checkTableDangling,
		},
		{
			Name:   "table-rebuild-equal",
			Guards: "§3.2 determinism: incremental table update equals a from-scratch rebuild",
			Fn:     checkTableRebuild,
		},
	}
}

// ------------------------------------------------------------ hierarchy

// checkPartition verifies that at every elected level the Member /
// Members structures describe a partition: each node belongs to
// exactly one cluster, each cluster is a level-(k+1) node whose sorted
// member list round-trips through Member, the member counts cover the
// level exactly, and every cluster head leads its own cluster.
func checkPartition(s *Snapshot) error {
	h := s.Next.Hier
	if h == nil || len(h.Levels) == 0 {
		return fmt.Errorf("empty hierarchy")
	}
	for k := 0; k+1 < len(h.Levels); k++ {
		lvl, up := h.Levels[k], h.Levels[k+1]
		if !lvl.Elected() {
			return fmt.Errorf("level %d missing election data below level %d", k, k+1)
		}
		for _, u := range lvl.Nodes {
			m := lvl.MemberOf(u)
			if m < 0 {
				return fmt.Errorf("level %d node %d has no cluster", k, u)
			}
			if !up.IsNode(m) {
				return fmt.Errorf("level %d node %d assigned to non-node cluster %d", k, u, m)
			}
		}
		if n := denseCount(lvl.Member); n != len(lvl.Nodes) {
			return fmt.Errorf("level %d Member has %d entries for %d nodes", k, n, len(lvl.Nodes))
		}
		lists := 0
		for _, ms := range lvl.Members {
			if len(ms) > 0 {
				lists++
			}
		}
		if lists != len(up.Nodes) {
			return fmt.Errorf("level %d has %d member lists for %d clusters", k, lists, len(up.Nodes))
		}
		covered := 0
		for _, c := range up.Nodes {
			members := lvl.MembersOf(c)
			if len(members) == 0 {
				return fmt.Errorf("level-%d cluster %d has no members", k+1, c)
			}
			prev := -1
			for _, u := range members {
				if u <= prev {
					return fmt.Errorf("level-%d cluster %d member list unsorted or duplicated at %d", k+1, c, u)
				}
				prev = u
				if lvl.MemberOf(u) != c {
					return fmt.Errorf("level %d node %d in member list of %d but Member says %d", k, u, c, lvl.MemberOf(u))
				}
			}
			covered += len(members)
			if lvl.MemberOf(c) != c {
				return fmt.Errorf("head %d at level %d not in its own cluster", c, k)
			}
		}
		if covered != len(lvl.Nodes) {
			return fmt.Errorf("level %d member lists cover %d of %d nodes", k, covered, len(lvl.Nodes))
		}
	}
	return nil
}

// checkReach verifies the member-to-head hop bound h_k of the
// clustering that produced the hierarchy (Reach), mirroring the
// semantics of Hierarchy.Validate: Reach < 0 disables the check
// (grace-period electors transiently detach members) and the forced
// top level is exempt (its members need not be adjacent to the head).
func checkReach(s *Snapshot) error {
	h := s.Next.Hier
	if h == nil || h.Reach < 0 {
		return nil
	}
	for k := 0; k+1 < len(h.Levels); k++ {
		lvl := h.Levels[k]
		if !lvl.Elected() {
			continue // reported by hierarchy-partition
		}
		if h.ForcedTop && k == len(h.Levels)-2 {
			continue
		}
		var rc *cluster.ReachChecker
		for _, u := range lvl.Nodes {
			m := lvl.MemberOf(u)
			if m == u {
				continue
			}
			if h.Reach == 1 {
				if !lvl.Graph.HasEdge(u, m) {
					return fmt.Errorf("level %d node %d not adjacent to its head %d", k, u, m)
				}
				continue
			}
			if rc == nil {
				rc = cluster.NewReachChecker(lvl.Graph)
			}
			if !rc.Within(u, m, h.Reach) {
				return fmt.Errorf("level %d node %d beyond reach %d of head %d", k, u, h.Reach, m)
			}
		}
	}
	return nil
}

// checkCompression verifies that every level carrying election data
// strictly compresses: |V_{k+1}| < |V_k|. The build drops the election
// data and stops exactly when a level fails to compress, so a
// non-compressing elected level means the recursion invariant (and
// with it L = Θ(log |V|)) is broken.
func checkCompression(s *Snapshot) error {
	h := s.Next.Hier
	for k := 0; k+1 < len(h.Levels); k++ {
		lvl, up := h.Levels[k], h.Levels[k+1]
		if !lvl.Elected() {
			continue
		}
		if len(up.Nodes) >= len(lvl.Nodes) {
			return fmt.Errorf("level %d does not compress: %d clusters over %d nodes",
				k, len(up.Nodes), len(lvl.Nodes))
		}
	}
	return nil
}

// ----------------------------------------------------------------- ALCA

// checkALCAState verifies the Fig. 3 state variable on both ends of
// the tick: a head's recorded State equals the number of *neighbors*
// electing it (self-election excluded), and across the tick the state
// change of every persistent head equals gained − lost electors
// recomputed from the two Head maps. Together these force every
// per-tick state change to decompose into unit elector flips — the
// unit-step transition premise of the paper's Fig. 3 chain (and the
// reason the Eq. 22 damping argument has no counterexamples).
func checkALCAState(s *Snapshot) error {
	if err := checkStateCounts(s.Next.Hier); err != nil {
		return err
	}
	if s.Prev == nil {
		return nil
	}
	ph, nh := s.Prev.Hier, s.Next.Hier
	for k := 0; k+1 < len(ph.Levels) && k+1 < len(nh.Levels); k++ {
		pl, nl := ph.Levels[k], nh.Levels[k]
		if !pl.Elected() || !nl.Elected() {
			continue
		}
		gained := map[int]int{}
		lost := map[int]int{}
		for _, u := range nl.Nodes {
			hd := nl.HeadOf(u)
			if hd == u {
				continue
			}
			if !pl.IsNode(u) || pl.HeadOf(u) != hd {
				gained[hd]++
			}
		}
		for _, u := range pl.Nodes {
			hd := pl.HeadOf(u)
			if hd == u {
				continue
			}
			if !nl.IsNode(u) || nl.HeadOf(u) != hd {
				lost[hd]++
			}
		}
		// Persistent heads: present in both snapshots' state tables.
		for _, hd := range nh.Levels[k+1].Nodes {
			oldS := pl.StateOf(hd)
			if oldS < 0 {
				continue
			}
			newS := nl.StateOf(hd)
			if newS-oldS != gained[hd]-lost[hd] {
				return fmt.Errorf("level-%d head %d state moved %d->%d but elector flips say %+d gained %+d lost",
					k, hd, oldS, newS, gained[hd], lost[hd])
			}
		}
	}
	return nil
}

// checkStateCounts recomputes each level's State map from its Head map.
func checkStateCounts(h *cluster.Hierarchy) error {
	for k := 0; k+1 < len(h.Levels); k++ {
		lvl, up := h.Levels[k], h.Levels[k+1]
		if !lvl.Elected() {
			continue
		}
		want := map[int]int{}
		for _, u := range lvl.Nodes {
			if hd := lvl.HeadOf(u); hd != u {
				want[hd]++
			}
		}
		if n := denseCount(lvl.State); n != len(up.Nodes) {
			return fmt.Errorf("level %d State has %d entries for %d clusters", k, n, len(up.Nodes))
		}
		for _, hd := range up.Nodes {
			got := lvl.StateOf(hd)
			if got < 0 {
				return fmt.Errorf("level-%d head %d missing from State", k, hd)
			}
			if got != want[hd] {
				return fmt.Errorf("level-%d head %d State=%d but %d neighbors elect it", k, hd, got, want[hd])
			}
		}
	}
	return nil
}

// ----------------------------------------------------------------- diff

// checkDiffNodes verifies that for every level k >= 1 the recorded
// Elections[k] and Rejections[k] are exactly the set difference of the
// two snapshots' level-k node sets: applying them to prev reproduces
// next, with no spurious or missing events.
func checkDiffNodes(s *Snapshot) error {
	if s.Prev == nil || s.Diff == nil {
		return nil
	}
	ph, nh, d := s.Prev.Hier, s.Next.Hier, s.Diff
	for k := 1; k < maxLevels(s); k++ {
		pN := hierLevelNodes(ph, k)
		nN := hierLevelNodes(nh, k)
		el := d.Elections[k]
		rj := d.Rejections[k]
		i, j, ei, ri := 0, 0, 0, 0
		for i < len(pN) || j < len(nN) {
			switch {
			case j >= len(nN) || (i < len(pN) && pN[i] < nN[j]):
				if ri >= len(rj) || rj[ri] != pN[i] {
					return fmt.Errorf("level %d: node %d left the level but has no rejection event", k, pN[i])
				}
				ri++
				i++
			case i >= len(pN) || nN[j] < pN[i]:
				if ei >= len(el) || el[ei] != nN[j] {
					return fmt.Errorf("level %d: node %d joined the level but has no election event", k, nN[j])
				}
				ei++
				j++
			default:
				i++
				j++
			}
		}
		if ei != len(el) {
			return fmt.Errorf("level %d: spurious election event for node %d", k, el[ei])
		}
		if ri != len(rj) {
			return fmt.Errorf("level %d: spurious rejection event for node %d", k, rj[ri])
		}
	}
	return nil
}

// checkDiffLinks verifies the per-level link events against the two
// level graphs: every recorded event flips an edge in the right
// direction, every edge difference between the graphs is recorded
// exactly once, and each event is classified correctly — migration iff
// both endpoints are level-k nodes in both snapshots (paper events
// i–ii), structural otherwise (iii–vii).
func checkDiffLinks(s *Snapshot) error {
	if s.Prev == nil || s.Diff == nil {
		return nil
	}
	ph, nh, d := s.Prev.Hier, s.Next.Hier, s.Diff
	for k := 1; k < maxLevels(s); k++ {
		pl, nl := ph.Level(k), nh.Level(k)
		pg := hierLevelGraph(pl)
		ng := hierLevelGraph(nl)
		mig := d.MigrationLinkEvents[k]
		str := d.StructuralLinkEvents[k]
		if pg != nil && ng != nil && len(mig) == 0 && len(str) == 0 && pg.Equal(ng) {
			continue // fast path: identical graphs, no events — consistent
		}
		seen := make(map[topology.EdgeKey]bool, len(mig)+len(str))
		check := func(ev topology.LinkEvent, migClass bool) error {
			a, b := ev.Edge.Nodes()
			if _, dup := seen[ev.Edge]; dup {
				return fmt.Errorf("level %d: duplicate link event for %v", k, ev.Edge)
			}
			seen[ev.Edge] = ev.Up
			pHas := pg != nil && pg.HasEdge(a, b)
			nHas := ng != nil && ng.HasEdge(a, b)
			if ev.Up && (pHas || !nHas) {
				return fmt.Errorf("level %d: up event for %v but prev=%v next=%v", k, ev.Edge, pHas, nHas)
			}
			if !ev.Up && (!pHas || nHas) {
				return fmt.Errorf("level %d: down event for %v but prev=%v next=%v", k, ev.Edge, pHas, nHas)
			}
			persistent := pl != nil && nl != nil &&
				pl.IsNode(a) && pl.IsNode(b) && nl.IsNode(a) && nl.IsNode(b)
			if migClass != persistent {
				return fmt.Errorf("level %d: event %v classified migration=%v but endpoint persistence=%v",
					k, ev.Edge, migClass, persistent)
			}
			return nil
		}
		for _, ev := range mig {
			if err := check(ev, true); err != nil {
				return err
			}
		}
		for _, ev := range str {
			if err := check(ev, false); err != nil {
				return err
			}
		}
		// Completeness: every edge-set difference must carry an event.
		var missing error
		if ng != nil {
			ng.ForEachEdge(func(e topology.EdgeKey) {
				if missing != nil {
					return
				}
				a, b := e.Nodes()
				if pg != nil && pg.HasEdge(a, b) {
					return
				}
				if up, ok := seen[e]; !ok || !up {
					missing = fmt.Errorf("level %d: new edge %v has no up event", k, e)
				}
			})
		}
		if missing != nil {
			return missing
		}
		if pg != nil {
			pg.ForEachEdge(func(e topology.EdgeKey) {
				if missing != nil {
					return
				}
				a, b := e.Nodes()
				if ng != nil && ng.HasEdge(a, b) {
					return
				}
				if up, ok := seen[e]; !ok || up {
					missing = fmt.Errorf("level %d: lost edge %v has no down event", k, e)
				}
			})
		}
		if missing != nil {
			return missing
		}
	}
	return nil
}

// checkDiffMembers recomputes every per-node ancestor-chain change
// from the two hierarchies and requires Diff.Memberships to list
// exactly those changes in (level, node) order — the §5 membership
// events the handoff accountant consumes.
func checkDiffMembers(s *Snapshot) error {
	if s.Prev == nil || s.Diff == nil {
		return nil
	}
	ph, nh := s.Prev.Hier, s.Next.Hier
	var want []cluster.MembershipChange
	var pc, nc []int
	for _, v := range ph.Levels[0].Nodes {
		pc = ph.AppendAncestorChain(v, pc[:0])
		nc = nh.AppendAncestorChain(v, nc[:0])
		depth := len(pc)
		if len(nc) > depth {
			depth = len(nc)
		}
		for i := 0; i < depth; i++ {
			old, nw := -1, -1
			if i < len(pc) {
				old = pc[i]
			}
			if i < len(nc) {
				nw = nc[i]
			}
			if old != nw {
				want = append(want, cluster.MembershipChange{Node: v, Level: i + 1, Old: old, New: nw})
			}
		}
	}
	slices.SortFunc(want, func(a, b cluster.MembershipChange) int {
		if a.Level != b.Level {
			return a.Level - b.Level
		}
		return a.Node - b.Node
	})
	got := s.Diff.Memberships
	if len(got) != len(want) {
		return fmt.Errorf("diff records %d membership changes, snapshots imply %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("membership change %d: diff says %+v, snapshots imply %+v", i, got[i], want[i])
		}
	}
	return nil
}

// checkDiffState recomputes the persistent-head state deltas from the
// two hierarchies and requires Diff.StateDeltas to match exactly.
func checkDiffState(s *Snapshot) error {
	if s.Prev == nil || s.Diff == nil {
		return nil
	}
	ph, nh := s.Prev.Hier, s.Next.Hier
	var want []cluster.StateDelta
	for k := 0; k+1 < len(ph.Levels) && k+1 < len(nh.Levels); k++ {
		pl, nl := ph.Levels[k], nh.Levels[k]
		if !pl.Elected() || !nl.Elected() {
			continue
		}
		for _, id := range ph.Levels[k+1].Nodes {
			nw := nl.StateOf(id)
			if nw < 0 {
				continue
			}
			if old := pl.StateOf(id); old != nw {
				want = append(want, cluster.StateDelta{Level: k, Node: id, Old: old, New: nw})
			}
		}
	}
	got := s.Diff.StateDeltas
	if len(got) != len(want) {
		return fmt.Errorf("diff records %d state deltas, snapshots imply %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("state delta %d: diff says %+v, snapshots imply %+v", i, got[i], want[i])
		}
	}
	return nil
}

// ---------------------------------------------------------------- table

// checkTableOwners verifies the CHLM table's owner structure: the
// internal audit (one row per owner, index bijective, servers/chains
// aligned) plus the coverage contract — owners are exactly the level-0
// nodes the hierarchy covers.
func checkTableOwners(s *Snapshot) error {
	t := s.Next.Table
	if t == nil {
		return nil
	}
	if err := t.Audit(); err != nil {
		return err
	}
	want := s.Next.Hier.LevelNodes(0)
	got := t.Owners()
	if !slices.Equal(got, want) {
		return fmt.Errorf("table covers %d owners, hierarchy level 0 has %d nodes (or sets differ)",
			len(got), len(want))
	}
	return nil
}

// checkTableChains verifies each owner's logical ancestor chain in the
// table against a fresh identity lookup over the hierarchy — the
// continuity the handoff classification (φ vs γ) depends on.
func checkTableChains(s *Snapshot) error {
	t := s.Next.Table
	if t == nil {
		return nil
	}
	h, ids := s.Next.Hier, s.Next.IDs
	var buf []uint64
	for _, v := range t.Owners() {
		buf = ids.AppendChainOf(h, v, buf[:0])
		chain := t.Chain(v)
		if !slices.Equal(chain, buf) {
			return fmt.Errorf("owner %d chain %v does not match hierarchy chain %v", v, chain, buf)
		}
	}
	return nil
}

// checkTableDangling verifies that every server entry within an
// owner's chain depth resolves to a live owner node: after any
// handoff, no entry may point at a node outside the covered set and no
// entry inside the chain may be unassigned.
func checkTableDangling(s *Snapshot) error {
	t := s.Next.Table
	if t == nil {
		return nil
	}
	owners := t.Owners()
	for _, v := range owners {
		for k := 1; k <= t.Levels(v); k++ {
			srv := t.Server(v, k)
			if srv < 0 {
				return fmt.Errorf("owner %d level %d has no server despite a level-%d ancestor", v, k, k)
			}
			if i := sort.SearchInts(owners, srv); i >= len(owners) || owners[i] != srv {
				return fmt.Errorf("owner %d level %d server %d is not a live owner (dangling pointer)", v, k, srv)
			}
		}
	}
	return nil
}

// checkTableRebuild is the reuse-vs-scratch differential: the table
// produced by the incremental zero-alloc update path must be
// observably identical to a from-scratch BuildTable over the same
// snapshot. This is the check that catches stale reused rows — e.g. a
// handoff that failed to rehome an entry after a cluster change.
func checkTableRebuild(s *Snapshot) error {
	t := s.Next.Table
	if t == nil || s.Selector == nil {
		return nil
	}
	fresh := s.Selector.BuildTable(s.Next.Hier, s.Next.IDs)
	if !slices.Equal(t.Owners(), fresh.Owners()) {
		return fmt.Errorf("owner sets differ from a fresh rebuild (%d vs %d owners)",
			len(t.Owners()), len(fresh.Owners()))
	}
	for _, v := range t.Owners() {
		if !slices.Equal(t.Chain(v), fresh.Chain(v)) {
			return fmt.Errorf("owner %d chain %v differs from fresh rebuild %v", v, t.Chain(v), fresh.Chain(v))
		}
		if lt, lf := t.Levels(v), fresh.Levels(v); lt != lf {
			return fmt.Errorf("owner %d has %d levels, fresh rebuild has %d", v, lt, lf)
		}
		for k := 1; k <= t.Levels(v); k++ {
			if got, want := t.Server(v, k), fresh.Server(v, k); got != want {
				return fmt.Errorf("owner %d level %d server %d differs from fresh rebuild %d (stale handoff)",
					v, k, got, want)
			}
		}
	}
	return nil
}

// denseCount returns the number of present (non-negative) entries of
// a dense ID-indexed slice.
func denseCount(s []int32) int {
	n := 0
	for _, v := range s {
		if v >= 0 {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------- shared

func hierLevelNodes(h *cluster.Hierarchy, k int) []int {
	if l := h.Level(k); l != nil {
		return l.Nodes
	}
	return nil
}

func hierLevelGraph(l *cluster.Level) *topology.Graph {
	if l == nil {
		return nil
	}
	return l.Graph
}
