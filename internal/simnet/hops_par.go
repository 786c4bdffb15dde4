package simnet

import (
	"repro/internal/cluster"
	"repro/internal/topology"
)

// Parallel hop sampling. The serial sampler interleaves RNG draws with
// BFS runs, but the draws of one attempt depend only on earlier draws
// — never on a BFS outcome. BFS outcomes only decide when the loop
// stops (the pairs counter). So the sampler can speculate: draw the
// whole attempt budget up front on the serial RNG (recording the RNG
// state after every attempt), run all the BFS probes in parallel, then
// replay the attempts in order applying the serial loop's termination
// rule. If the replay stops early, the RNG is rewound to the snapshot
// after the last attempt the serial loop would have consumed — the
// draws beyond it never happened, as far as the RNG stream and the
// measurements are concerned. Results are byte-identical to the serial
// sampler.

// hopCand is one speculative sampling attempt: the drawn pair and its
// cluster's level-0 descendants, or skip for the attempts the serial
// loop discards before running BFS (degenerate cluster, a == b). desc
// is a capacity-capped window of the level's shared hopDescs backing.
type hopCand struct {
	skip bool
	a, b int
	desc []int
	hops int
}

// sampleHopsPar is the parallel form of sampleHops; the BFS probes of
// one level fan out over the run's worker pool.
func (st *stateRun) sampleHopsPar(h *cluster.Hierarchy, g *topology.Graph) {
	for k := 1; k <= h.L(); k++ {
		clusters := h.LevelNodes(k)
		maxAttempts := st.cfg.HopPairs * 4
		if st.cfg.HopPairs <= 0 || len(clusters) == 0 {
			continue
		}

		// Phase 1 (serial): draw every attempt in the budget, snapshot
		// the RNG after each one.
		st.hopCands = st.hopCands[:0]
		st.hopSnaps = st.hopSnaps[:0]
		st.hopDescs = st.hopDescs[:0]
		for attempts := 0; attempts < maxAttempts; attempts++ {
			c := clusters[st.hopRng.Intn(len(clusters))]
			lo := len(st.hopDescs)
			st.hopDescs = h.DescendantsInto(st.hopDescs, k, c)
			hi := len(st.hopDescs)
			desc := st.hopDescs[lo:hi:hi]
			cand := hopCand{skip: true}
			if len(desc) >= 2 {
				a := desc[st.hopRng.Intn(len(desc))]
				b := desc[st.hopRng.Intn(len(desc))]
				if a != b {
					cand = hopCand{a: a, b: b, desc: desc}
				}
			}
			if cand.skip {
				st.hopDescs = st.hopDescs[:lo]
			}
			st.hopCands = append(st.hopCands, cand)
			st.hopSnaps = append(st.hopSnaps, *st.hopRng)
		}

		// Phase 2 (parallel): BFS every surviving attempt. Each worker
		// owns its BFS scratch and membership set; each candidate's hops
		// field is a disjoint write.
		st.hopPool.RunShards(len(st.hopCands), func(w, s int) {
			cand := &st.hopCands[s]
			if cand.skip {
				return
			}
			in := st.hopInW[w]
			clear(in)
			for _, v := range cand.desc {
				in[v] = true
			}
			cand.hops = st.hopScrW[w].HopCount(g, cand.a, cand.b, func(v int) bool { return in[v] })
		})

		// Phase 3 (serial): replay in attempt order under the serial
		// termination rule, then rewind the RNG to the last consumed
		// attempt.
		pairs := 0
		consumed := len(st.hopCands)
		for i := range st.hopCands {
			cand := &st.hopCands[i]
			if cand.skip || cand.hops <= 0 {
				continue
			}
			st.hopByLevel.Add(k, float64(cand.hops))
			pairs++
			if pairs >= st.cfg.HopPairs {
				consumed = i + 1
				break
			}
		}
		*st.hopRng = st.hopSnaps[consumed-1]
	}
}
