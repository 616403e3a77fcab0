package dynokv

import (
	"fmt"

	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Durable fault input domain sizes: a draw equal to domain-1 triggers the
// fault, so inference synthesizes each with probability 1/domain per draw.
const (
	bitRotDomain     = 24 // recovery-time record rot (per scanned record)
	devLossDomain    = 24 // device loses a durable record (per scanned record)
	durRewriteDomain = 16 // application re-write after a delete (per delete)
)

// tornAt is the default torn-write truncation point: inside the value field
// of a framed put record (tag, key, ver, val, checksum — 8 bytes each), so
// a loose decode keeps the real tag, key and version but loses the value.
const tornAt = 28

// durableConfigFromParams maps scenario parameters onto a store config for
// the given mode. The "fixed" parameter applies the scenario's fix:
// checksum-verified recovery, barrier-before-ack, durable tombstones.
func durableConfigFromParams(mode DurableMode, p scenario.Params) DurableConfig {
	cfg := DurableConfig{
		Mode:          mode,
		Fixed:         p.Get("fixed", 0) != 0,
		Clients:       int(p.Get("clients", 2)),
		KeysPerClient: int(p.Get("keys", 2)),
		Puts:          int(p.Get("puts", 3)),
		ClientPace:    uint64(p.Get("pace", 300)),
	}
	switch mode {
	case DurTornWAL:
		cfg.GroupCommit = int(p.Get("group", 3))
		cfg.TornBytes = int(p.Get("torn", tornAt))
		cfg.BitRotDomain = bitRotDomain
	case DurFsyncLoss:
		cfg.Puts = int(p.Get("puts", 4))
		cfg.ReorderAt = int(p.Get("reorder", 9))
		cfg.DevLossDomain = devLossDomain
	case DurSnapRes:
		cfg.SnapEvery = int(p.Get("snapevery", 4))
		cfg.RewriteDomain = durRewriteDomain
	}
	return cfg.Norm()
}

// buildDurableFor returns a scenario Build function for the mode.
func buildDurableFor(mode DurableMode) func(m *vm.Machine, p scenario.Params) func(*vm.Thread) {
	return func(m *vm.Machine, p scenario.Params) func(*vm.Thread) {
		return BuildDurable(m, durableConfigFromParams(mode, p)).Main()
	}
}

// durableInputs models the real world during the recorded run: a healthy
// medium and device, no application re-writes; payloads and the crash point
// derive from the seed.
func durableInputs(seed int64, p scenario.Params) vm.InputSource {
	return vm.InputSourceFunc(func(stream string, index int) trace.Value {
		h := vm.HashValue(seed, stream, index)
		switch stream {
		case StreamDurPayload:
			return trace.Int(h % 1024)
		case StreamCrashPlan:
			return trace.Int(h)
		case StreamBitRot, StreamDevLoss, StreamDurRewrite:
			return trace.Int(0)
		}
		return trace.Int(h % 256)
	})
}

// TornWAL returns the disk-tornwal scenario: crash recovery decodes a torn
// WAL record without verifying its checksum trailer and installs garbage.
func TornWAL() *scenario.Scenario {
	return &scenario.Scenario{
		Name: "disk-tornwal",
		Description: "WAL-structured store with group commit: a crash mid-window " +
			"tears the first unsynced record at a byte offset, and the recovery " +
			"path decodes records without verifying the checksum trailer — the " +
			"torn tail becomes a zero value installed under a real version. " +
			"Recovery-time media rot on an intact record produces the same " +
			"corrupt-read symptom (environment fault).",
		DefaultParams: scenario.Params{
			"clients": 2, "keys": 2, "puts": 3, "group": 3, "torn": tornAt, "fixed": 0,
		},
		DefaultSeed: 1, // verified by TestTornWALDefaultSeed
		Build:       buildDurableFor(DurTornWAL),
		Stats:       DurableStats,
		Inputs:      durableInputs,
		InputDomains: []scenario.InputDomain{
			{Stream: StreamDurPayload, Min: 0, Max: 1023},
			{Stream: StreamCrashPlan, Min: 0, Max: 1 << 30},
			{Stream: StreamBitRot, Min: 0, Max: bitRotDomain - 1},
		},
		Failure: scenario.FailureSpec{
			Name: "corruptread",
			Check: func(v *scenario.RunView) (bool, string) {
				bad, ok := v.LastOutput(OutDurCorrupt)
				if !ok {
					return false, ""
				}
				if bad > 0 {
					return true, "dynokv:corruptread"
				}
				return false, ""
			},
		},
		RootCauses: []scenario.RootCause{
			{
				ID: "torn-loose-decode",
				Description: "recovery decoded a torn WAL record without verifying " +
					"its checksum trailer, installing a zero value under the torn " +
					"record's real version instead of truncating the log there",
				Present: func(v *scenario.RunView) bool {
					return v.Machine.CellByName(CellTornInstall).AsInt() > 0
				},
			},
			{
				ID: "media-rot",
				Description: "the storage medium rotted an intact, fsynced record " +
					"before recovery read it back (an environment fault no decode " +
					"discipline can repair)",
				Present: func(v *scenario.RunView) bool {
					return v.Machine.CellByName(CellBitRot).AsInt() > 0
				},
			},
		},
		ControlStreams: []string{StreamCrashPlan},
	}
}

// FsyncLoss returns the disk-fsyncloss scenario: the device reorders one
// fsync past a write, and the store acknowledges the write anyway.
func FsyncLoss() *scenario.Scenario {
	return &scenario.Scenario{
		Name: "disk-fsyncloss",
		Description: "WAL-structured store that acknowledges each put right after " +
			"fsync without checking the returned durability watermark: the device " +
			"reorders one fsync past the newest record, and a crash in that window " +
			"silently loses an acknowledged write. The device outright losing a " +
			"durable record produces the same lost-write symptom (environment " +
			"fault). The fix issues a sync barrier before acknowledging.",
		DefaultParams: scenario.Params{
			"clients": 2, "keys": 2, "puts": 4, "reorder": 9, "fixed": 0,
		},
		DefaultSeed: 15, // verified by TestFsyncLossDefaultSeed
		Build:       buildDurableFor(DurFsyncLoss),
		Stats:       DurableStats,
		Inputs:      durableInputs,
		InputDomains: []scenario.InputDomain{
			{Stream: StreamDurPayload, Min: 0, Max: 1023},
			{Stream: StreamCrashPlan, Min: 0, Max: 1 << 30},
			{Stream: StreamDevLoss, Min: 0, Max: devLossDomain - 1},
		},
		Failure: scenario.FailureSpec{
			Name: "lostdurable",
			Check: func(v *scenario.RunView) (bool, string) {
				lost, ok := v.LastOutput(OutDurLost)
				if !ok {
					return false, ""
				}
				if lost > 0 {
					return true, "dynokv:lostdurable"
				}
				return false, ""
			},
		},
		RootCauses: []scenario.RootCause{
			{
				ID: "fsync-reordered",
				Description: "the device held the newest record back past its " +
					"fsync; the store trusted fsync's completion instead of its " +
					"watermark and acknowledged a write the crash then discarded",
				Present: func(v *scenario.RunView) bool {
					return v.Machine.CellByName(CellReorderLost).AsInt() > 0
				},
			},
			{
				ID: "device-loss",
				Description: "the device lost a correctly fsynced record outright " +
					"(an environment fault no write ordering can prevent)",
				Present: func(v *scenario.RunView) bool {
					return v.Machine.CellByName(CellDevLost).AsInt() > 0
				},
			},
		},
		ControlStreams: []string{StreamCrashPlan},
	}
}

// SnapRes returns the disk-snapres scenario: deletes are applied to memory
// only, so snapshot+log replay resurrects the tombstoned key after a crash.
func SnapRes() *scenario.Scenario {
	return &scenario.Scenario{
		Name: "disk-snapres",
		Description: "WAL-structured store with inline snapshots whose delete path " +
			"updates memory but logs no tombstone record: after a crash, replaying " +
			"the snapshot and log resurrects the deleted key from its old puts. " +
			"The application re-creating the key after its delete produces the " +
			"same alive-after-delete symptom legitimately (environment fault).",
		DefaultParams: scenario.Params{
			"clients": 2, "keys": 2, "puts": 3, "snapevery": 4, "fixed": 0,
		},
		DefaultSeed: 9, // verified by TestSnapResDefaultSeed
		Build:       buildDurableFor(DurSnapRes),
		Stats:       DurableStats,
		Inputs:      durableInputs,
		InputDomains: []scenario.InputDomain{
			{Stream: StreamDurPayload, Min: 0, Max: 1023},
			{Stream: StreamCrashPlan, Min: 0, Max: 1 << 30},
			{Stream: StreamDurRewrite, Min: 0, Max: durRewriteDomain - 1},
		},
		Failure: scenario.FailureSpec{
			Name: "diskresurrect",
			Check: func(v *scenario.RunView) (bool, string) {
				alive, ok := v.LastOutput(OutDurAlive)
				if !ok {
					return false, ""
				}
				if alive > 0 {
					return true, "dynokv:diskresurrect"
				}
				return false, ""
			},
		},
		RootCauses: []scenario.RootCause{
			{
				ID: "missing-tombstone",
				Description: "the delete was applied to the in-memory table only; " +
					"with no tombstone record in the log, crash recovery replayed " +
					"the key's earlier puts and brought the deleted value back",
				Present: func(v *scenario.RunView) bool {
					return v.Machine.CellByName(CellDiskResurrect).AsInt() > 0
				},
			},
			{
				ID: "app-rewrite",
				Description: "the application re-created the key after deleting " +
					"it (outside the storage system's control)",
				Present: func(v *scenario.RunView) bool {
					return v.Machine.CellByName(CellDurRewrites).AsInt() > 0
				},
			},
		},
		ControlStreams: []string{StreamCrashPlan},
	}
}

// DurableFamily returns the three durability scenarios, in catalog order.
func DurableFamily() []*scenario.Scenario {
	return []*scenario.Scenario{TornWAL(), FsyncLoss(), SnapRes()}
}

// DurableFixedVariants returns the healthy builds, one per scenario, named
// "<scenario>-fixed": checksum-verified recovery, barrier-before-ack,
// durable tombstones. Tests and invariant training use them.
func DurableFixedVariants() []*scenario.Scenario {
	var out []*scenario.Scenario
	for _, s := range DurableFamily() {
		f := s
		f.Name = s.Name + "-fixed"
		f.DefaultParams = s.DefaultParams.Clone(scenario.Params{"fixed": 1})
		out = append(out, f)
	}
	return out
}

// DurableStats summarizes a finished durability run for CLI output.
func DurableStats(v *scenario.RunView) string {
	m := v.Machine
	cell := func(name string) int64 { return m.CellByName(name).AsInt() }
	return fmt.Sprintf(
		"acked=%d corrupt=%d torn=%d rot=%d lost=%d/%d held=%d alive=%d res=%d rewrites=%d outcome=%s",
		cell(CellDurAcked), cell(CellDurCorrupt), cell(CellTornInstall), cell(CellBitRot),
		cell(CellReorderLost), cell(CellDevLost), cell(CellReorderHeld),
		cell(CellDurAlive), cell(CellDiskResurrect), cell(CellDurRewrites),
		v.Result.Outcome)
}
