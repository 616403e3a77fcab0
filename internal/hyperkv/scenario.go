package hyperkv

import (
	"fmt"

	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// crashDomain is the size of the crash input's search domain; an input
// equal to crashDomain-1 crashes the server, so inference synthesizes a
// crash with probability 1/crashDomain per server per dump.
const crashDomain = 4

// configFromParams maps scenario parameters onto a cluster config.
func configFromParams(p scenario.Params) Config {
	return Config{
		Servers:     int(p.Get("servers", 3)),
		Clients:     int(p.Get("clients", 3)),
		RowsPerCli:  int(p.Get("rows", 16)),
		Ranges:      int(p.Get("ranges", 6)),
		Migrations:  int(p.Get("migrations", 2)),
		Fixed:       p.Get("fixed", 0) != 0,
		CrashDomain: crashDomain - 1,
	}.Norm()
}

// Scenario returns the §4 case-study scenario: the Hypertable data-loss
// bug. DefaultSeed is a scheduler seed under which the migration race
// manifests (verified by the scenario tests).
func Scenario() *scenario.Scenario {
	s := &scenario.Scenario{
		Name: "hyperkv-dataloss",
		Description: "Hypertable issue 63: concurrent loads lose rows when a range " +
			"migrates while a recently received row in the migrated range is being " +
			"committed. The load appears to succeed; subsequent dumps silently " +
			"return fewer rows.",
		DefaultParams: scenario.Params{
			"servers": 3, "clients": 3, "rows": 16,
			"ranges": 6, "migrations": 2, "fixed": 0,
		},
		DefaultSeed: 19, // verified by TestDefaultSeedManifestsRace
		Build: func(m *vm.Machine, p scenario.Params) func(*vm.Thread) {
			cl := Build(m, configFromParams(p))
			return cl.Main()
		},
		Inputs:       productionInputs,
		InputDomains: inputDomains(),
		Stats:        Stats,
		Failure: scenario.FailureSpec{
			Name:  "dataloss",
			Check: checkDataLoss,
		},
		RootCauses: []scenario.RootCause{
			{
				ID: "migration-race",
				Description: "race between row commit and range migration: the row is " +
					"committed to a server that no longer hosts its range and is " +
					"silently ignored by dumps",
				Present: func(v *scenario.RunView) bool {
					return RaceLostRows(v) > 0
				},
			},
			{
				ID: "slave-crash",
				Description: "a range server crashes after the upload and before the " +
					"dump, so its rows are missing from the dump (expected behaviour)",
				Present: func(v *scenario.RunView) bool {
					return v.Machine.CellByName(CellCrashed).AsInt() > 0
				},
			},
			{
				ID: "client-oom",
				Description: "the dump client runs out of memory before finishing, " +
					"returning a truncated row set that looks like corruption",
				Present: func(v *scenario.RunView) bool {
					return v.Machine.CellByName(CellOOM).AsInt() > 0
				},
			},
		},
		ControlStreams: controlStreams(3),
	}
	return s
}

// controlStreams lists the streams RCSE must record for a cluster of the
// given server count: the master's plan, the environment fault switches
// and the dump client's memory headroom. Row payloads are data plane.
func controlStreams(servers int) []string {
	out := []string{StreamPlan, StreamMem}
	for s := 0; s < servers; s++ {
		out = append(out, StreamCrash+serverName(s))
	}
	// Network latency/jitter/drop streams are environment control inputs
	// too; the default link config uses fixed latency so none are
	// consumed, but declare the intent for configurations that do.
	return out
}

// productionInputs models the real world during the recorded run: healthy
// servers (no crashes), a well-provisioned dump client, payloads and
// migration picks derived from the seed.
func productionInputs(seed int64, p scenario.Params) vm.InputSource {
	return vm.InputSourceFunc(func(stream string, index int) trace.Value {
		h := vm.HashValue(seed, stream, index)
		switch {
		case stream == StreamRowData:
			return trace.Int(h % 1024)
		case stream == StreamPlan:
			return trace.Int(h)
		case stream == StreamMem:
			return trace.Int(1 + h%7) // never 0: no OOM in production
		case len(stream) > len(StreamCrash) && stream[:len(StreamCrash)] == StreamCrash:
			return trace.Int(0) // healthy servers in production
		}
		return trace.Int(h % 256)
	})
}

// inputDomains declares the search space inference draws from when a
// stream's values were not recorded. Crash and OOM become reachable here:
// that is precisely how under-constrained inference lands on the wrong
// root cause.
func inputDomains() []scenario.InputDomain {
	domains := []scenario.InputDomain{
		{Stream: StreamRowData, Min: 0, Max: 1023},
		{Stream: StreamPlan, Min: 0, Max: 1 << 30},
		{Stream: StreamMem, Min: 0, Max: 7},
	}
	for s := 0; s < 8; s++ { // cover any plausible server count
		domains = append(domains, scenario.InputDomain{
			Stream: StreamCrash + serverName(s), Min: 0, Max: crashDomain - 1,
		})
	}
	return domains
}

// checkDataLoss is the failure specification: the dump returned fewer rows
// than the load acked, with no error reported anywhere.
func checkDataLoss(v *scenario.RunView) (bool, string) {
	dumped, okD := v.LastOutput(OutDumpRows)
	acked, okA := v.LastOutput(OutAcked)
	if !okD || !okA {
		return false, ""
	}
	if acked > 0 && dumped < acked {
		return true, "hyperkv:dataloss"
	}
	return false, ""
}

// FixedScenario returns the same system with the lock in place — the
// program after the paper's fix predicate is enforced. Used by tests to
// show the failure (and the race root cause) disappear.
func FixedScenario() *scenario.Scenario {
	s := Scenario()
	s.Name = "hyperkv-fixed"
	s.DefaultParams = s.DefaultParams.Clone(scenario.Params{"fixed": 1})
	return s
}

// Stats summarizes a finished run for CLI output.
func Stats(v *scenario.RunView) string {
	dumped, _ := v.LastOutput(OutDumpRows)
	acked, _ := v.LastOutput(OutAcked)
	return fmt.Sprintf("acked=%d dumped=%d raceLost=%d crashed=%d oom=%d outcome=%s",
		acked, dumped,
		RaceLostRows(v),
		v.Machine.CellByName(CellCrashed).AsInt(),
		v.Machine.CellByName(CellOOM).AsInt(),
		v.Result.Outcome)
}
