package lm

import (
	"repro/internal/cluster"
	"repro/internal/par"
)

// Parallel incremental table update. The owner rows are independent —
// each row reads only the two snapshots, the (read-only) dirty set,
// and prev — so they are sharded into contiguous owner ranges, each
// shard appending into its own flat chain/server buffers with its own
// hash-descent key buffer. The shard outputs are then concatenated in
// shard order, reproducing exactly the packing the serial
// UpdateTableInto produces: same owners, same index, same flat
// backings, same row views.

// UpdateParScratch holds the reusable per-shard buffers of
// UpdateTableIntoPar. Not safe for concurrent use by two updates.
type UpdateParScratch struct {
	shards []updateShardBuf
}

type updateShardBuf struct {
	chain  []uint64
	srv    []int32
	path   []uint64
	rowEnd []int // per-row end offset within this shard's buffers
	keyBuf []uint64
	work   hashWork
}

// UpdateTableIntoPar is UpdateTableInto fanned out over pool p. A nil
// or single-worker pool falls back to the serial update. psc (nil =
// allocate fresh) supplies the per-shard buffers; reusing one scratch
// across ticks amortizes them. known is the maintainer's dirty-cluster
// export (nil recomputes it; see UpdateTableInto). The result is
// byte-identical to the serial path.
//
//manet:hotpath
func (s *Selector) UpdateTableIntoPar(
	dst *Table, sc *UpdateScratch, psc *UpdateParScratch,
	prev *Table,
	prevH *cluster.Hierarchy, prevIDs *cluster.Identities,
	nextH *cluster.Hierarchy, nextIDs *cluster.Identities,
	known *cluster.DirtyClusters,
	p *par.Pool,
) *Table {
	if p.Workers() == 1 {
		return s.UpdateTableInto(dst, sc, prev, prevH, prevIDs, nextH, nextIDs, known)
	}
	if dst == nil {
		//lint:ignore hotpath warm-up: nil dst allocates the double-buffered table once
		dst = &Table{}
	}
	if dst == prev {
		panic("lm: UpdateTableIntoPar dst must not alias prev")
	}
	if sc == nil {
		//lint:ignore hotpath warm-up: callers reuse one scratch across ticks
		sc = &UpdateScratch{}
	}
	if psc == nil {
		//lint:ignore hotpath warm-up: callers reuse one parallel scratch across ticks
		psc = &UpdateParScratch{}
	}
	// The dirty-subtree analysis is cheap (per-cluster, not per-row) and
	// feeds every shard read-only, so it stays serial.
	var dirty, own dirtySet
	if known != nil {
		dirty = dirtySet(known.ByLevel)
		own = sc.ownFromKnown(dirty, prevH, prevIDs, nextH, nextIDs)
	} else {
		dirty = sc.dirtySubtrees(prevH, prevIDs, nextH, nextIDs)
		own = sc.own
	}
	rev := sc.buildRev(nextH, nextIDs, dirty, own)
	useAff := sc.affectedOwners(dirty, prev, prevH, prevIDs, nextH)
	owners := nextH.LevelNodes(0)
	dst.setOwners(owners)

	// Dirty-row list: the rows needing a real recompute (affected by a
	// dirty subtree, or with no previous row to copy). Shard boundaries
	// split THIS list evenly, so election-heavy work balances even when
	// churn concentrates in one corner of the owner space; the clean
	// rows in between are wholesale copies of prev.
	sc.affRows = sc.affRows[:0]
	if useAff {
		for row, v := range owners {
			if !sc.affBits[v] && prev.row(v) >= 0 {
				continue
			}
			sc.affRows = append(sc.affRows, row)
		}
	}

	// The shard count tracks the owner count, not the dirty-row count,
	// so the per-shard flat backings keep their steady-state capacity
	// across ticks instead of being regrown whenever churn fluctuates.
	shards := par.Shards(p.Workers(), len(owners))
	for len(psc.shards) < shards {
		psc.shards = append(psc.shards, updateShardBuf{})
	}
	affRows := sc.affRows

	// Fan out: each shard owns a contiguous owner-row range and fills
	// its own buffers. Without dirty-row analysis the ranges split the
	// owners evenly; with it, shard sh starts at the owner row of its
	// first assigned dirty row (shard 0 backfills from row 0, the last
	// shard runs to the end).
	//lint:ignore hotpath per-tick shard callback closure, counted in the tick alloc budget
	p.RunShards(shards, func(_, sh int) {
		lo, hi := par.Shard(len(owners), shards, sh)
		if useAff {
			lo = 0
			if sh > 0 {
				if aLo, _ := par.Shard(len(affRows), shards, sh); aLo < len(affRows) {
					lo = affRows[aLo]
				} else {
					lo = len(owners)
				}
			}
			hi = len(owners)
			if sh+1 < shards {
				if nLo, _ := par.Shard(len(affRows), shards, sh+1); nLo < len(affRows) {
					hi = affRows[nLo]
				}
			}
		}
		b := &psc.shards[sh]
		b.chain = b.chain[:0]
		b.srv = b.srv[:0]
		b.path = b.path[:0]
		b.rowEnd = b.rowEnd[:0]
		b.work = hashWork{}
		for _, v := range owners[lo:hi] {
			if useAff && !sc.affBits[v] {
				if r := prev.row(v); r >= 0 {
					b.chain = append(b.chain, prev.chains[r]...)
					b.srv = append(b.srv, prev.servers[r]...)
					b.path = append(b.path, prev.paths[r]...)
					b.rowEnd = append(b.rowEnd, len(b.chain))
					continue
				}
			}
			b.chain, b.srv, b.path, b.keyBuf = s.appendRow(
				v, dirty, rev, sc.revKeys, prev, nextH, nextIDs, b.chain, b.srv, b.path, b.keyBuf, &b.work)
			b.rowEnd = append(b.rowEnd, len(b.chain))
		}
	})

	// Ordered merge: concatenating shard buffers in shard order yields
	// the serial packing.
	dst.servers = dst.servers[:0]
	dst.chains = dst.chains[:0]
	dst.paths = dst.paths[:0]
	dst.srvBack = dst.srvBack[:0]
	dst.chainBack = dst.chainBack[:0]
	dst.pathBack = dst.pathBack[:0]
	sc.rowEnd = sc.rowEnd[:0]
	sc.work = hashWork{}
	for sh := 0; sh < shards; sh++ {
		b := &psc.shards[sh]
		sc.work.selects += b.work.selects
		sc.work.hashes += b.work.hashes
		base := len(dst.chainBack)
		dst.chainBack = append(dst.chainBack, b.chain...)
		dst.srvBack = append(dst.srvBack, b.srv...)
		dst.pathBack = append(dst.pathBack, b.path...)
		for _, end := range b.rowEnd {
			sc.rowEnd = append(sc.rowEnd, base+end)
		}
	}
	// Fix up the row views only after the backings stopped growing.
	// Path-column offsets derive from the chain lengths (see
	// UpdateTableInto).
	off, pOff := 0, 0
	for _, end := range sc.rowEnd {
		n := end - off
		pEnd := pOff + pathOff(n+1)
		dst.servers = append(dst.servers, dst.srvBack[off:end:end])
		dst.chains = append(dst.chains, dst.chainBack[off:end:end])
		dst.paths = append(dst.paths, dst.pathBack[pOff:pEnd:pEnd])
		off, pOff = end, pEnd
	}
	return dst
}
