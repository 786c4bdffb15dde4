package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/simnet"
)

// digestsJSON maps each workload to the SHA-256 digest of its Results
// at seed 1, the reference realization every run checks. A change that
// alters any simulated statistic changes the digest; a change that only
// speeds the simulator up must not.
//
//go:embed digests.json
var digestsJSON []byte

// storedDigest returns the seed-1 digest recorded for a workload.
func storedDigest(name string) (string, error) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	d, ok := m[name]
	if !ok {
		return "", fmt.Errorf("digests.json: no digest for workload %q", name)
	}
	return d, nil
}

// digest hashes the lmsim -json rendering of r. Results.Config holds
// funcs and cannot be marshalled, so the digest covers the same field
// set lmsim prints, with floats at full precision.
func digest(r *simnet.Results) (string, error) {
	b, err := json.Marshal(map[string]any{
		"n":              r.Config.N,
		"seed":           r.Config.Seed,
		"duration_s":     r.Duration,
		"phi_rate":       r.PhiRate,
		"gamma_rate":     r.GammaRate,
		"total_rate":     r.TotalRate(),
		"f0":             r.F0,
		"mean_levels":    r.MeanLevels,
		"giant_fraction": r.GiantFraction,
		"phi_by_level":   r.PhiRateByLevel,
		"gamma_by_level": r.GammaRateByLevel,
		"fmig_by_level":  r.FMigByLevel,
		"nodes_by_level": r.NodesByLevel,
		"edges_by_level": r.EdgesByLevel,
	})
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
