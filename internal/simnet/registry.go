// Model registries: the string-keyed mobility and link-model zoos that
// Config selects from. Registration is static (a fixed map plus a
// sorted name list) so validation, CLIs, and the experiment battery
// all agree on the same set and enumerate it deterministically.
package simnet

import (
	"repro/internal/geom"
	"repro/internal/mobility"
	"repro/internal/rng"
	"repro/internal/topology"
)

// mobilityCtor builds a mobility model for a defaulted config. src is
// the run's "mobility" stream.
type mobilityCtor func(cfg Config, region geom.Disc, src *rng.Source) mobility.Model

// mobilityRegistry maps Config.Mobility names to constructors.
var mobilityRegistry = map[string]mobilityCtor{
	MobilityWaypoint: func(cfg Config, region geom.Disc, src *rng.Source) mobility.Model {
		return mobility.NewWaypoint(region, cfg.Mu, src)
	},
	MobilityDirection: func(cfg Config, region geom.Disc, src *rng.Source) mobility.Model {
		return mobility.NewRandomDirection(region, cfg.Mu, 30, src)
	},
	MobilityStatic: func(cfg Config, region geom.Disc, src *rng.Source) mobility.Model {
		return mobility.NewStationary(region, src)
	},
	MobilityGroup: func(cfg Config, region geom.Disc, src *rng.Source) mobility.Model {
		size := cfg.GroupSize
		if size <= 0 {
			size = 16
		}
		radius := cfg.GroupRadius
		if radius <= 0 {
			radius = 2 * cfg.RTX
		}
		return mobility.NewGroupMobility(region, cfg.Mu, radius, size, src)
	},
	MobilityGaussMarkov: func(cfg Config, region geom.Disc, src *rng.Source) mobility.Model {
		return mobility.NewGaussMarkov(region, cfg.Mu, 0.75, 1, src)
	},
	MobilityManhattan: func(cfg Config, region geom.Disc, src *rng.Source) mobility.Model {
		return mobility.NewManhattan(region, cfg.Mu, 2*cfg.RTX, src)
	},
	MobilityHotspot: func(cfg Config, region geom.Disc, src *rng.Source) mobility.Model {
		return mobility.NewHotspot(region, cfg.Mu, 20, 0, 0, src)
	},
}

// mobilityNames is the registry key set in display order (the four
// seed models first, then the zoo additions alphabetically).
var mobilityNames = []string{
	MobilityWaypoint, MobilityDirection, MobilityStatic, MobilityGroup,
	MobilityGaussMarkov, MobilityHotspot, MobilityManhattan,
}

// MobilityModels returns the accepted Config.Mobility names in a
// stable order. The returned slice is fresh; callers may keep it.
func MobilityModels() []string {
	return append([]string(nil), mobilityNames...)
}

// linkCtor builds a link model for a defaulted config. root supplies
// deterministic named streams (shadowing seeds).
type linkCtor func(cfg Config, root *rng.Root) topology.LinkModel

// linkRegistry maps Config.Link names to constructors.
var linkRegistry = map[string]linkCtor{
	LinkUnitDisk: func(cfg Config, root *rng.Root) topology.LinkModel {
		return topology.NewUnitDisk(cfg.RTX)
	},
	LinkLogShadow: func(cfg Config, root *rng.Root) topology.LinkModel {
		return topology.NewLogShadow(
			cfg.RTX, cfg.PathLossExp, cfg.ShadowSigma, cfg.LinkMargin,
			root.Stream("linkshadow").Uint64())
	},
}

// linkNames is the registry key set in display order.
var linkNames = []string{LinkUnitDisk, LinkLogShadow}

// LinkModels returns the accepted Config.Link names in a stable order.
// The returned slice is fresh; callers may keep it.
func LinkModels() []string {
	return append([]string(nil), linkNames...)
}
