package progen

import (
	"debugdet/internal/dynokv"
	"debugdet/internal/scenario"
	"debugdet/internal/vm"
)

// Pinned sustained defaults: a (generator seed, scheduler seed) pair whose
// production run manifests the stale read. Verified by
// TestSustainedDefaultsFail.
const sustainedGen, sustainedSeed = 1, 2

// sustainedRounds brackets the generated write/read rounds per key. The
// base dynokv-staleread run is ~2.2k events at 3 rounds and event count
// scales linearly in rounds, so 28-36 rounds lands the sustained program
// at roughly 10x the corpus scenario — long enough that a default-interval
// flight recorder rotates dozens of segments.
const sustainedRoundsLo, sustainedRoundsHi = 28, 36

// Sustained returns the fuzz-sustained template variant: the
// dynokv-staleread replication scenario under generated sustained traffic
// — seed-shaped client count, key count and a ~10x round count. It rides
// in the catalog as a variant, not a corpus member, because its runs are
// an order of magnitude longer than every corpus scenario: corpus-wide
// experiments would pay the 10x on every cell, while the flight-recorder
// paths that need a long run (segment rotation, spill, retention) resolve
// it by name. Like the other fuzz templates, any generator seed is
// reproducible via Params{"gen": seed}.
func Sustained() *scenario.Scenario {
	base := dynokv.StaleRead()
	s := *base
	s.Name = "fuzz-sustained"
	s.Description = "generated sustained replication traffic: the dynokv-staleread " +
		"cluster under a seed-shaped long-running workload (~10x the corpus " +
		"scenario's event count); exercises flight-recorder segment rotation and spill"
	s.DefaultParams = scenario.Params{"gen": sustainedGen, "fixed": 0}
	s.DefaultSeed = sustainedSeed
	baseBuild := base.Build
	s.Build = func(m *vm.Machine, p scenario.Params) func(*vm.Thread) {
		return baseBuild(m, sustainedParams(p))
	}
	return &s
}

// sustainedParams derives the traffic shape from the "gen" parameter and
// overlays the caller's params on top, so explicit overrides (a pinned
// round count, the fix toggle) win over the generated shape. Quorums and
// cluster size stay at the template's defaults: the stale-read window
// needs R+W <= N, and the generator's job is traffic volume, not failure
// geometry.
func sustainedParams(p scenario.Params) scenario.Params {
	r := newRng(p.Get("gen", sustainedGen))
	shape := scenario.Params{
		"rounds":  int64(r.between(sustainedRoundsLo, sustainedRoundsHi)),
		"clients": int64(r.between(2, 4)),
		"keys":    int64(r.between(2, 3)),
	}
	return shape.Clone(p)
}
