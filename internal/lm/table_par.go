package lm

import "repro/internal/par"

// Parallel table update. The owner rows are independent — each row
// reads only the next snapshot, the (read-only) cluster index, and
// prev — so they are sharded into contiguous owner ranges, each shard
// filling its own rowBuf. The shard outputs are then concatenated in shard
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
	shards := par.Shards(p.Workers(), len(owners))
	for len(psc.shards) < shards {
		psc.shards = append(psc.shards, rowBuf{})
	}

	// Fan out: each shard owns an even, contiguous owner-row range and
	// fills its own buffers.
	p.RunShards(shards, func(_, sh int) {
		lo, hi := par.Shard(len(owners), shards, sh)
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
