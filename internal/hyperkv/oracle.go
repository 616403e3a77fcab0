package hyperkv

import (
	"fmt"

	"debugdet/internal/scenario"
)

// paramsOf recovers the cluster configuration of a finished run from its
// trace header (Exec and the recorders both stamp it).
func paramsOf(v *scenario.RunView) scenario.Params {
	if v.Trace != nil && v.Trace.Header.Params != nil {
		return scenario.Params(v.Trace.Header.Params)
	}
	return nil
}

// VisibleRows computes, from the final machine state, how many distinct
// rows a complete, healthy dump would return: rows present on a server
// that currently owns their range. This is independent of whether the
// run's dump actually completed (crash, OOM), so it isolates the
// migration race: a row that was acked but is visible nowhere was
// committed to a server that no longer hosted its range and silently
// dropped — no other mechanism in the system unhosts a committed row.
func VisibleRows(v *scenario.RunView) int64 {
	cfg := configFromParams(paramsOf(v))
	m := v.Machine
	var visible int64
	for key := 0; key < cfg.TotalRows(); key++ {
		r := cfg.rangeOf(key)
		for s := 0; s < cfg.Servers; s++ {
			ownName := fmt.Sprintf("owned[%s][%d]", serverName(s), r)
			if m.CellByName(ownName).AsInt() == 0 {
				continue
			}
			rowName := fmt.Sprintf("rows[%s][%d]", serverName(s), key)
			if !m.CellByName(rowName).IsNil() {
				visible++
				break
			}
		}
	}
	return visible
}

// AckedRows reads the final acked counter.
func AckedRows(v *scenario.RunView) int64 {
	return v.Machine.CellByName(CellAcked).AsInt()
}

// RaceLostRows returns how many acked rows are visible on no owning
// server: the rows the migration race destroyed.
func RaceLostRows(v *scenario.RunView) int64 {
	lost := AckedRows(v) - VisibleRows(v)
	if lost < 0 {
		return 0
	}
	return lost
}

// fmtRouting returns the routing cell name for a range (Build's, and the
// tests').
func fmtRouting(r int) string { return fmt.Sprintf("routing[%d]", r) }
