package core

import (
	"testing"

	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/workload"
)

// TestFig2Shape pins the paper's §4 case-study results: the relative
// positions of the three determinism models on the Hypertable bug.
func TestFig2Shape(t *testing.T) {
	s, err := workload.ByName("hyperkv-dataloss")
	if err != nil {
		t.Fatal(err)
	}
	get := func(m record.Model) *Evaluation {
		ev, err := Evaluate(s, m, Options{ReplayBudget: 150})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		return ev
	}
	value := get(record.Value)
	failure := get(record.Failure)
	rcse := get(record.DebugRCSE)

	// Fidelity: value = 1, RCSE = 1, failure = 1/3 (three possible root
	// causes — the paper's exact numbers).
	if value.Utility.DF != 1 {
		t.Errorf("value DF = %v, want 1 (%s)", value.Utility.DF, value.Fidelity)
	}
	if rcse.Utility.DF != 1 {
		t.Errorf("rcse DF = %v, want 1 (%s)", rcse.Utility.DF, rcse.Fidelity)
	}
	if failure.Utility.DF <= 0.3 || failure.Utility.DF >= 0.4 {
		t.Errorf("failure DF = %v, want 1/3 (%s)", failure.Utility.DF, failure.Fidelity)
	}

	// Overhead: failure ≈ 1.0 < RCSE << value (Fig. 2's y-axis shape).
	if failure.Overhead != 1.0 {
		t.Errorf("failure overhead = %v, want exactly 1.0 (records nothing)", failure.Overhead)
	}
	if !(rcse.Overhead > 1.0 && rcse.Overhead < 1.6) {
		t.Errorf("rcse overhead = %v, want slightly above 1.0", rcse.Overhead)
	}
	if !(value.Overhead > 2.0) {
		t.Errorf("value overhead = %v, want > 2.0", value.Overhead)
	}
	if !(rcse.Overhead < value.Overhead/1.5) {
		t.Errorf("rcse (%vx) not well below value (%vx)", rcse.Overhead, value.Overhead)
	}

	// Log volume: RCSE records an order of magnitude less than value.
	if rcse.LogBytes*4 > value.LogBytes {
		t.Errorf("rcse log %dB not well below value log %dB", rcse.LogBytes, value.LogBytes)
	}

	// The failure-deterministic replay must have landed on a WRONG root
	// cause (that is what 1/3 fidelity means here).
	if failure.Fidelity.SharedCause {
		t.Error("failure determinism accidentally reproduced the true cause; expected an alternative")
	}
}

// TestPerfectBeatsEverythingOnFidelityAndCost pins the conservative
// baseline's properties.
func TestPerfectDeterminismBaseline(t *testing.T) {
	s, err := workload.ByName("hyperkv-dataloss")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(s, record.Perfect, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Utility.DF != 1 {
		t.Fatalf("perfect DF = %v", ev.Utility.DF)
	}
	if ev.Replay.Attempts != 1 {
		t.Fatalf("perfect replay attempts = %d", ev.Replay.Attempts)
	}
	if ev.Overhead < 2.0 {
		t.Fatalf("perfect overhead = %v, expected the most expensive recording", ev.Overhead)
	}
}

// TestOutputDeterminismSumHazard pins §2: output determinism on the sum
// bug reproduces the output through innocent inputs — fidelity zero.
func TestOutputDeterminismSumHazard(t *testing.T) {
	s, err := workload.ByName("sum")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(s, record.Output, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Utility.DF != 0 {
		t.Fatalf("output-determinism DF on sum = %v, want 0 (the 2+2=5 hazard)", ev.Utility.DF)
	}
	if !ev.Replay.Ok {
		t.Fatal("output replay should have found an output-matching execution")
	}
	if ev.Fidelity.ReplayFailed {
		t.Fatal("the output-matching execution should not be a failure")
	}
}

// TestMsgDropWrongCause pins §2's second hazard: relaxed replay attributes
// the loss to network congestion instead of the buffer race.
func TestMsgDropWrongCause(t *testing.T) {
	s, err := workload.ByName("msgdrop")
	if err != nil {
		t.Fatal(err)
	}
	fail, err := Evaluate(s, record.Failure, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fail.Utility.DF != 0.5 {
		t.Fatalf("failure DF on msgdrop = %v, want 0.5 (wrong cause of two)", fail.Utility.DF)
	}
	rcse, err := Evaluate(s, record.DebugRCSE, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rcse.Utility.DF != 1 {
		t.Fatalf("rcse DF on msgdrop = %v, want 1", rcse.Utility.DF)
	}
}

// TestShrinkGivesEfficiencyAboveOne pins §3.2's DE > 1 observation.
func TestShrinkGivesEfficiencyAboveOne(t *testing.T) {
	s, err := workload.ByName("overflow")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(s, record.Failure, Options{
		ShrinkParams: []scenario.Params{{"requests": 2}, {"requests": 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Replay.Ok {
		t.Fatalf("shrinking replay failed: %s", ev.Replay.Note)
	}
	if ev.Utility.DE <= 1 {
		t.Fatalf("DE with shrinking = %v, want > 1 (synthesized shorter execution)", ev.Utility.DE)
	}
	if ev.Utility.DF != 1 {
		t.Fatalf("shrunk replay DF = %v", ev.Utility.DF)
	}
}

// TestEvaluateUnknownModel checks error paths.
func TestEvaluateUnknownModel(t *testing.T) {
	s, err := workload.ByName("sum")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(s, record.Model(42), Options{}); err == nil {
		t.Fatal("Evaluate accepted an unknown model")
	}
}

// TestEvaluationsAreDeterministic: two identical evaluations must agree on
// every number.
func TestEvaluationsAreDeterministic(t *testing.T) {
	s, err := workload.ByName("hyperkv-dataloss")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Evaluate(s, record.DebugRCSE, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(s, record.DebugRCSE, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Overhead != b.Overhead || a.LogBytes != b.LogBytes ||
		a.Utility != b.Utility || a.Replay.Attempts != b.Replay.Attempts {
		t.Fatalf("identical evaluations differ:\n%s\n%s", a.Summary(), b.Summary())
	}
}
