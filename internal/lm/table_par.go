package lm

import "repro/internal/par"

// Parallel table update. The owner rows are independent — each row
// reads only the two snapshots, the (read-only) dirty set, and prev —
// so they are sharded into contiguous owner ranges, each shard filling
// its own rowBuf. The shard outputs are then concatenated in shard
// order, reproducing exactly the packing of a single-worker fill: same
// owners, same index, same flat backings, same row views.

// UpdateParScratch holds the reusable per-shard buffers of
// UpdateTableIntoPar. Not safe for concurrent use by two updates.
type UpdateParScratch struct {
	shards []rowBuf
}

// fillRowsPar fills dst's backings and sc.rowEnd with the rows of
// owners, sharded over pool p.
func (s *Selector) fillRowsPar(
	dst *Table, sc *UpdateScratch, psc *UpdateParScratch,
	owners []int, in rowInputs, p *par.Pool,
) {
	// Dirty-row list: the rows needing a real recompute (affected by a
	// dirty subtree, or with no previous row to copy). Shard boundaries
	// split THIS list evenly, so election-heavy work balances even when
	// churn concentrates in one corner of the owner space; the clean
	// rows in between are wholesale copies of prev.
	sc.affRows = sc.affRows[:0]
	if in.aff != nil {
		for row, v := range owners {
			if !in.aff[v] && in.prev.row(v) >= 0 {
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
		psc.shards = append(psc.shards, rowBuf{})
	}
	affRows := sc.affRows

	// Fan out: each shard owns a contiguous owner-row range and fills
	// its own buffers. Without dirty-row analysis the ranges split the
	// owners evenly; with it, shard sh starts at the owner row of its
	// first assigned dirty row (shard 0 backfills from row 0, the last
	// shard runs to the end).
	p.RunShards(shards, func(_, sh int) {
		lo, hi := par.Shard(len(owners), shards, sh)
		if in.aff != nil {
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
		s.fillRows(b, owners[lo:hi], in)
	})

	// Ordered merge: concatenating shard buffers in shard order yields
	// the single-worker packing.
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
}
