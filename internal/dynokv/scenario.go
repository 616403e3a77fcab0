package dynokv

import (
	"fmt"
	"strings"

	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Fault input domain sizes: a draw equal to domain-1 triggers the fault,
// so inference synthesizes each with probability 1/domain per draw.
const (
	wipeDomain     = 16 // replica storage wipe (per node, per served read)
	rewriteDomain  = 16 // application re-write after a delete (per delete)
	hintWipeDomain = 32 // hint-agent memory wipe (per drain cycle)
)

// configFromParams maps scenario parameters onto a cluster config for the
// given mode. The "fixed" parameter applies the scenario's fix predicate:
// majority quorums for staleread, tombstone retention for resurrect,
// durable hints for losthint.
func configFromParams(mode Mode, p scenario.Params) Config {
	fixed := p.Get("fixed", 0) != 0
	cfg := Config{
		Mode:   mode,
		Vnodes: int(p.Get("vnodes", 5)),
	}
	switch mode {
	case ModeStaleRead:
		cfg.Nodes = int(p.Get("nodes", 3))
		cfg.N = int(p.Get("replicas", 3))
		cfg.Clients = int(p.Get("clients", 3))
		cfg.KeysPerClient = int(p.Get("keys", 2))
		cfg.Rounds = int(p.Get("rounds", 3))
		if fixed {
			cfg.R, cfg.W = cfg.N/2+1, cfg.N/2+1
		} else {
			cfg.R = int(p.Get("readq", 1))
			cfg.W = int(p.Get("writeq", 1))
		}
		cfg.WipeDomain = wipeDomain
		cfg.ClientPace = 300
	case ModeResurrect:
		cfg.Nodes = int(p.Get("nodes", 3))
		cfg.N = int(p.Get("replicas", 3))
		cfg.Clients = int(p.Get("clients", 2))
		cfg.KeysPerClient = int(p.Get("keys", 2))
		cfg.Syncs = int(p.Get("syncs", 6))
		cfg.R = int(p.Get("readq", 2))
		cfg.W = int(p.Get("writeq", 2))
		if !fixed {
			cfg.GCGraceEpochs = 1
		}
		cfg.RewriteDomain = rewriteDomain
		cfg.SyncEvery = 7300
		cfg.ClientPace = 400
		cfg.Settle = 4000
		cfg.WriteJitter = 700
	case ModeLostHint:
		cfg.Nodes = int(p.Get("nodes", 4))
		cfg.N = int(p.Get("replicas", 2))
		cfg.Clients = int(p.Get("clients", 2))
		cfg.KeysPerClient = int(p.Get("keys", 4))
		cfg.R = int(p.Get("readq", 2))
		cfg.W = int(p.Get("writeq", 2))
		cfg.DurableHints = fixed
		cfg.HintWipeDomain = hintWipeDomain
		cfg.AckTimeout = 2000
		cfg.HandoffTimeout = 4000
		cfg.DownTime = 9000
		cfg.DrainEvery = 3200
		cfg.ClientPace = 300
		cfg.Settle = 16000
	}
	return cfg.Norm()
}

// buildFor returns a scenario Build function for the mode.
func buildFor(mode Mode) func(m *vm.Machine, p scenario.Params) func(*vm.Thread) {
	return func(m *vm.Machine, p scenario.Params) func(*vm.Thread) {
		return Build(m, configFromParams(mode, p)).Main()
	}
}

// productionInputs models the real world during the recorded run: healthy
// replicas, no hint-storage loss, no application re-writes; payloads,
// anti-entropy pairing and the outage plan derive from the seed.
func productionInputs(seed int64, p scenario.Params) vm.InputSource {
	return vm.InputSourceFunc(func(stream string, index int) trace.Value {
		h := vm.HashValue(seed, stream, index)
		switch {
		case stream == StreamPayload:
			return trace.Int(h % 1024)
		case stream == StreamSyncPlan, stream == StreamDownPlan:
			return trace.Int(h)
		case stream == StreamRewrite:
			return trace.Int(0)
		case strings.HasPrefix(stream, StreamWipe), strings.HasPrefix(stream, StreamHintWipe):
			return trace.Int(0)
		}
		return trace.Int(h % 256)
	})
}

// faultDomains declares the per-node fault stream domains, covering any
// plausible node count.
func faultDomains(prefix string, max int64) []scenario.InputDomain {
	var out []scenario.InputDomain
	for n := 0; n < 8; n++ {
		out = append(out, scenario.InputDomain{
			Stream: prefix + nodeName(n), Min: 0, Max: max,
		})
	}
	return out
}

// StaleRead returns the dynokv-staleread scenario: with R+W <= N an
// acknowledged write can be invisible to its own author's next read.
func StaleRead() *scenario.Scenario {
	return &scenario.Scenario{
		Name: "dynokv-staleread",
		Description: "Dynamo-style cluster configured with R=W=1 on N=3: the read " +
			"and write quorums need not intersect, so under replication lag a " +
			"client's acknowledged write is missing from its own next read. The " +
			"same stale-read symptom can also come from a replica that lost its " +
			"storage and restarted empty (environment fault).",
		DefaultParams: scenario.Params{
			"nodes": 3, "vnodes": 5, "replicas": 3, "readq": 1, "writeq": 1,
			"clients": 3, "keys": 2, "rounds": 3, "fixed": 0,
		},
		DefaultSeed: 8, // verified by TestStaleReadDefaultSeed
		Build:       buildFor(ModeStaleRead),
		Stats:       Stats,
		Inputs:      productionInputs,
		InputDomains: append([]scenario.InputDomain{
			{Stream: StreamPayload, Min: 0, Max: 1023},
		}, faultDomains(StreamWipe, wipeDomain-1)...),
		Failure: scenario.FailureSpec{
			Name: "staleread",
			Check: func(v *scenario.RunView) (bool, string) {
				stale, ok := v.LastOutput(OutStale)
				if !ok {
					return false, ""
				}
				if stale > 0 {
					return true, "dynokv:staleread"
				}
				return false, ""
			},
		},
		RootCauses: []scenario.RootCause{
			{
				ID: "weak-quorum",
				Description: "R+W <= N: the write was acknowledged by a quorum the " +
					"read quorum never intersected, so the read was served by a " +
					"replica the replication fan-out had not reached yet",
				Present: func(v *scenario.RunView) bool {
					return v.Machine.CellByName(CellStaleUnrep).AsInt() > 0
				},
			},
			{
				ID: "replica-wipe",
				Description: "a replica lost its storage and restarted empty, so " +
					"it served reads for writes it had acknowledged before the wipe " +
					"(an environment fault, not a configuration bug)",
				Present: func(v *scenario.RunView) bool {
					return v.Machine.CellByName(CellStaleWiped).AsInt() > 0
				},
			},
		},
		ControlStreams: controlStreams(ModeStaleRead, 3),
	}
}

// Resurrect returns the dynokv-resurrect scenario: a too-short tombstone
// grace period lets anti-entropy reinstall deleted data.
func Resurrect() *scenario.Scenario {
	return &scenario.Scenario{
		Name: "dynokv-resurrect",
		Description: "Dynamo-style cluster with sound majority quorums but a " +
			"tombstone grace period shorter than one anti-entropy round: once a " +
			"tombstone is purged, a replica that has not yet processed the delete " +
			"pushes the old live value back during anti-entropy and the deleted " +
			"key comes back to life. An application-level re-write after the " +
			"delete produces the same symptom legitimately.",
		DefaultParams: scenario.Params{
			"nodes": 3, "vnodes": 5, "replicas": 3, "readq": 2, "writeq": 2,
			"clients": 2, "keys": 2, "syncs": 6, "fixed": 0,
		},
		DefaultSeed: 1, // verified by TestResurrectDefaultSeed
		Build:       buildFor(ModeResurrect),
		Stats:       Stats,
		Inputs:      productionInputs,
		InputDomains: []scenario.InputDomain{
			{Stream: StreamPayload, Min: 0, Max: 1023},
			{Stream: StreamSyncPlan, Min: 0, Max: 1 << 30},
			{Stream: StreamRewrite, Min: 0, Max: rewriteDomain - 1},
		},
		Failure: scenario.FailureSpec{
			Name: "resurrect",
			Check: func(v *scenario.RunView) (bool, string) {
				live, ok := v.LastOutput(OutResurrected)
				if !ok {
					return false, ""
				}
				if live > 0 {
					return true, "dynokv:resurrect"
				}
				return false, ""
			},
		},
		RootCauses: []scenario.RootCause{
			{
				ID: "tombstone-gc",
				Description: "the tombstone was garbage-collected before every " +
					"replica had processed the delete, so anti-entropy (or read " +
					"repair) from a lagging replica reinstalled the dead value",
				Present: func(v *scenario.RunView) bool {
					return v.Machine.CellByName(CellResurrected).AsInt() > 0
				},
			},
			{
				ID: "app-rewrite",
				Description: "the application itself re-created the key after " +
					"deleting it (outside the storage system's control)",
				Present: func(v *scenario.RunView) bool {
					return v.Machine.CellByName(CellRewrites).AsInt() > 0
				},
			},
		},
		ControlStreams: controlStreams(ModeResurrect, 3),
	}
}

// LostHint returns the dynokv-losthint scenario: a write acknowledged
// through a sloppy quorum of hints is lost when the hint agents abandon
// handoff.
func LostHint() *scenario.Scenario {
	return &scenario.Scenario{
		Name: "dynokv-losthint",
		Description: "Dynamo-style cluster under a scripted outage: writes whose " +
			"whole preference list is unreachable are acknowledged via hinted " +
			"handoff, but the hint agent abandons a hint whose first delivery " +
			"attempt finds the owner still down — so an acknowledged write " +
			"silently vanishes. A hint agent losing its memory outright " +
			"(environment fault) produces the same lost-write symptom.",
		DefaultParams: scenario.Params{
			"nodes": 4, "vnodes": 5, "replicas": 2, "readq": 2, "writeq": 2,
			"clients": 2, "keys": 4, "fixed": 0,
		},
		DefaultSeed: 1, // verified by TestLostHintDefaultSeed
		Build:       buildFor(ModeLostHint),
		Stats:       Stats,
		Inputs:      productionInputs,
		InputDomains: append([]scenario.InputDomain{
			{Stream: StreamPayload, Min: 0, Max: 1023},
			{Stream: StreamDownPlan, Min: 0, Max: 1 << 30},
		}, faultDomains(StreamHintWipe, hintWipeDomain-1)...),
		Failure: scenario.FailureSpec{
			Name: "lostwrite",
			Check: func(v *scenario.RunView) (bool, string) {
				lost, ok := v.LastOutput(OutLost)
				if !ok {
					return false, ""
				}
				if lost > 0 {
					return true, "dynokv:lostwrite"
				}
				return false, ""
			},
		},
		RootCauses: []scenario.RootCause{
			{
				ID: "hint-abandoned",
				Description: "the hint agent gave up after its first handoff " +
					"attempt found the owner still down, discarding the only " +
					"copies of a write the sloppy quorum had acknowledged",
				Present: func(v *scenario.RunView) bool {
					return v.Machine.CellByName(CellAbandoned).AsInt() > 0
				},
			},
			{
				ID: "hint-agent-wipe",
				Description: "the hint agent's host lost its memory before " +
					"handoff, destroying the parked hints (an environment fault " +
					"beyond the storage system's control)",
				Present: func(v *scenario.RunView) bool {
					return v.Machine.CellByName(CellHintsWiped).AsInt() > 0
				},
			},
		},
		ControlStreams: controlStreams(ModeLostHint, 4),
	}
}

// controlStreams lists the streams RCSE must record for the mode: every
// input whose value steers control flow. Payloads are data plane and are
// re-drawn at replay time; link jitter feeds only sleep durations, which
// schedule-forcing replay does not consult.
func controlStreams(mode Mode, nodes int) []string {
	var out []string
	switch mode {
	case ModeStaleRead:
		for n := 0; n < nodes; n++ {
			out = append(out, StreamWipe+nodeName(n))
		}
	case ModeResurrect:
		out = append(out, StreamSyncPlan, StreamRewrite)
	case ModeLostHint:
		out = append(out, StreamDownPlan)
		for n := 0; n < nodes; n++ {
			out = append(out, StreamHintWipe+nodeName(n))
		}
	}
	return out
}

// Family returns the three buggy scenarios, in catalog order.
func Family() []*scenario.Scenario {
	return []*scenario.Scenario{StaleRead(), Resurrect(), LostHint()}
}

// FixedVariants returns the healthy builds, one per scenario, named
// "<scenario>-fixed": majority quorums, retained tombstones, durable
// hints. Tests and invariant training use them.
func FixedVariants() []*scenario.Scenario {
	var out []*scenario.Scenario
	for _, s := range Family() {
		f := s
		f.Name = s.Name + "-fixed"
		f.DefaultParams = s.DefaultParams.Clone(scenario.Params{"fixed": 1})
		out = append(out, f)
	}
	return out
}

// Stats summarizes a finished run for CLI output.
func Stats(v *scenario.RunView) string {
	m := v.Machine
	cell := func(name string) int64 { return m.CellByName(name).AsInt() }
	out := func(name string) int64 {
		n, _ := v.LastOutput(name)
		return n
	}
	return fmt.Sprintf(
		"acked=%d reads=%d stale=%d/%d resurrected=%d rewrites=%d lost=%d abandoned=%d wipedHints=%d handoffs=%d outcome=%s",
		cell(CellAckedPuts), out(OutReads),
		cell(CellStaleUnrep), cell(CellStaleWiped),
		out(OutResurrected), cell(CellRewrites),
		out(OutLost), cell(CellAbandoned), cell(CellHintsWiped), cell(CellHandoffs),
		v.Result.Outcome)
}
