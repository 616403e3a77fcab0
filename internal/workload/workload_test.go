package workload

import (
	"testing"

	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

func TestCatalogIsStable(t *testing.T) {
	all := All()
	if len(all) != 17 {
		t.Fatalf("corpus has %d scenarios, want 17", len(all))
	}
	seen := make(map[string]bool)
	for _, s := range all {
		if s.Name == "" || s.Description == "" || s.Build == nil || s.Inputs == nil {
			t.Fatalf("scenario %q is underspecified", s.Name)
		}
		if s.Failure.Check == nil {
			t.Fatalf("scenario %q has no failure spec", s.Name)
		}
		if len(s.RootCauses) == 0 {
			t.Fatalf("scenario %q declares no root causes", s.Name)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate scenario %q", s.Name)
		}
		seen[s.Name] = true
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		s, err := ByName(name)
		if err != nil || s.Name != name {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("hyperkv-fixed"); err != nil {
		t.Fatalf("variant lookup failed: %v", err)
	}
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Fatal("ByName accepted garbage")
	}
}

// TestDynoKVFamilyRegistered pins the catalog contract for the replication
// family: every dynokv scenario and its fixed variant resolve by name.
func TestDynoKVFamilyRegistered(t *testing.T) {
	names := make(map[string]bool)
	for _, n := range Names() {
		names[n] = true
	}
	for _, want := range []string{
		"dynokv-staleread", "dynokv-resurrect", "dynokv-losthint",
		"dynokv-staleread-fixed", "dynokv-resurrect-fixed", "dynokv-losthint-fixed",
	} {
		if !names[want] {
			t.Errorf("Names() is missing %q", want)
		}
		if _, err := ByName(want); err != nil {
			t.Errorf("ByName(%q): %v", want, err)
		}
	}
}

// TestDurableFamilyRegistered pins the catalog contract for the
// durability family: every disk scenario and its fixed variant resolve by
// name.
func TestDurableFamilyRegistered(t *testing.T) {
	names := make(map[string]bool)
	for _, n := range Names() {
		names[n] = true
	}
	for _, want := range []string{
		"disk-tornwal", "disk-fsyncloss", "disk-snapres",
		"disk-tornwal-fixed", "disk-fsyncloss-fixed", "disk-snapres-fixed",
	} {
		if !names[want] {
			t.Errorf("Names() is missing %q", want)
		}
		if _, err := ByName(want); err != nil {
			t.Errorf("ByName(%q): %v", want, err)
		}
	}
}

// TestFuzzFamilyRegistered pins the catalog contract for the generated
// family: every fuzz scenario and its fixed variant resolve by name, and
// an arbitrary generator seed is reproducible through the "gen" param.
func TestFuzzFamilyRegistered(t *testing.T) {
	names := make(map[string]bool)
	for _, n := range Names() {
		names[n] = true
	}
	for _, want := range []string{
		"fuzz-atomicity", "fuzz-deadlock", "fuzz-lostmsg", "fuzz-oversell", "fuzz-crashpoint",
		"fuzz-atomicity-fixed", "fuzz-deadlock-fixed", "fuzz-lostmsg-fixed", "fuzz-oversell-fixed",
		"fuzz-crashpoint-fixed",
	} {
		if !names[want] {
			t.Errorf("Names() is missing %q", want)
		}
		if _, err := ByName(want); err != nil {
			t.Errorf("ByName(%q): %v", want, err)
		}
	}
	// Seed reproduction: the same scenario resolved from the catalog
	// regenerates any generator seed deterministically.
	s, err := ByName("fuzz-oversell")
	if err != nil {
		t.Fatal(err)
	}
	p := scenario.Params{"gen": 41}
	a := s.Exec(scenario.ExecOptions{Seed: 5, Params: p})
	b := s.Exec(scenario.ExecOptions{Seed: 5, Params: p})
	if !trace.EventsEqual(a.Trace, b.Trace, false) {
		t.Fatal("gen param does not reproduce the generated program")
	}
}

// TestSustainedVariantRegistered pins the long-running template's catalog
// contract: fuzz-sustained resolves by name but stays out of the corpus,
// so corpus-wide experiments never pay its ~10x run length.
func TestSustainedVariantRegistered(t *testing.T) {
	s, err := ByName("fuzz-sustained")
	if err != nil {
		t.Fatalf("ByName(fuzz-sustained): %v", err)
	}
	if s.Failure.Check == nil || s.Build == nil || s.Inputs == nil {
		t.Fatal("fuzz-sustained is underspecified")
	}
	for _, c := range All() {
		if c.Name == "fuzz-sustained" {
			t.Fatal("fuzz-sustained leaked into the corpus")
		}
	}
}

// TestDefaultSeedsFail pins every scenario's default seed to a failing run
// with exactly the expected original root cause.
func TestDefaultSeedsFail(t *testing.T) {
	wantCause := map[string]string{
		"sum":              "indexing-bug",
		"overflow":         "missing-length-check",
		"msgdrop":          "buffer-race",
		"hyperkv-dataloss": "migration-race",
		"bank":             "non-atomic-transfer",
		"deadlock":         "lock-order-inversion",
		"dynokv-staleread": "weak-quorum",
		"dynokv-resurrect": "tombstone-gc",
		"dynokv-losthint":  "hint-abandoned",
		"disk-tornwal":     "torn-loose-decode",
		"disk-fsyncloss":   "fsync-reordered",
		"disk-snapres":     "missing-tombstone",
		"fuzz-atomicity":   "unlocked-rmw",
		"fuzz-deadlock":    "lock-order-inversion",
		"fuzz-lostmsg":     "lossy-link",
		"fuzz-oversell":    "toctou-window",
		"fuzz-crashpoint":  "early-ack",
	}
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			v := s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed})
			failed, sig := s.CheckFailure(v)
			if !failed || sig == "" {
				t.Fatalf("default seed %d does not fail", s.DefaultSeed)
			}
			causes := s.PresentCauses(v)
			found := false
			for _, c := range causes {
				if c == wantCause[s.Name] {
					found = true
				}
			}
			if !found {
				t.Fatalf("causes = %v, want %q present", causes, wantCause[s.Name])
			}
		})
	}
}

// TestFixedVariantsDoNotFail: applying each scenario's fix predicate makes
// the failure disappear (the §3 definition of root cause).
func TestFixedVariantsDoNotFail(t *testing.T) {
	fixable := []string{"msgdrop", "bank"}
	for _, name := range fixable {
		name := name
		t.Run(name, func(t *testing.T) {
			s, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 15; seed++ {
				v := s.Exec(scenario.ExecOptions{
					Seed:   seed,
					Params: scenario.Params{"fixed": 1},
				})
				if failed, sig := s.CheckFailure(v); failed {
					t.Fatalf("fixed %s seed %d still fails with %q", name, seed, sig)
				}
			}
		})
	}
}

func TestSumProducesCorrectOutputOffTheBugPath(t *testing.T) {
	s := Sum()
	// Seeds that are not ≡ 0 mod 3 feed random inputs; the output must be
	// correct unless the inputs happen to sum to 4 (the corrupt entry).
	for seed := int64(1); seed < 20; seed++ {
		if seed%3 == 0 {
			continue
		}
		v := s.Exec(scenario.ExecOptions{Seed: seed})
		a := v.Result.InputsUsed["in.a"][0].AsInt()
		b := v.Result.InputsUsed["in.b"][0].AsInt()
		out := v.Result.Outputs["sum.out"][0].AsInt()
		if a+b == 4 {
			if out != 5 {
				t.Fatalf("seed %d: corrupt entry should yield 5, got %d", seed, out)
			}
			continue
		}
		if out != a+b {
			t.Fatalf("seed %d: %d+%d = %d?", seed, a, b, out)
		}
	}
}

func TestOverflowSmallRequestsNeverCrash(t *testing.T) {
	s := Overflow()
	v := s.Exec(scenario.ExecOptions{
		Seed: 1,
		Inputs: vm.InputSourceFunc(func(stream string, index int) trace.Value {
			return trace.Int(8) // tiny requests only
		}),
	})
	if v.Result.Outcome != vm.OutcomeOK {
		t.Fatalf("small-request run: %v", v.Result.Outcome)
	}
	if failed, _ := s.CheckFailure(v); failed {
		t.Fatal("small-request run flagged as failure")
	}
}

func TestMsgDropLossAccounting(t *testing.T) {
	s := MsgDrop()
	v := s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed})
	sent := v.Result.Outputs["report.sent"][0].AsInt()
	delivered := v.Result.Outputs["report.delivered"][0].AsInt()
	if delivered >= sent {
		t.Fatalf("default seed shows no loss: %d/%d", delivered, sent)
	}
	processed := v.Machine.CellByName("oracle.processed0").AsInt() +
		v.Machine.CellByName("oracle.processed1").AsInt()
	if processed != sent {
		t.Fatalf("healthy network lost packets: processed %d of %d", processed, sent)
	}
}

func TestBankConservationUnderFix(t *testing.T) {
	s := Bank()
	v := s.Exec(scenario.ExecOptions{Seed: 7, Params: scenario.Params{"fixed": 1}})
	total := v.Result.Outputs["bank.total"][0].AsInt()
	initial := v.Result.Outputs["bank.initial"][0].AsInt()
	if total != initial {
		t.Fatalf("fixed bank drifted: %d != %d", total, initial)
	}
}

func TestDeadlockAlternativeSeedsMayComplete(t *testing.T) {
	// The ABBA program does not deadlock under every interleaving; make
	// sure at least one seed completes (otherwise it is not a
	// hard-to-reproduce bug, just a broken program).
	s := Deadlock()
	completed := false
	for seed := int64(0); seed < 200 && !completed; seed++ {
		v := s.Exec(scenario.ExecOptions{Seed: seed})
		completed = v.Result.Outcome == vm.OutcomeOK
	}
	if !completed {
		t.Skip("no completing interleaving in 200 seeds; ABBA window is very wide")
	}
}

func TestScenarioSearchSourceCoversDomains(t *testing.T) {
	s := Overflow()
	src := s.SearchSource(5)
	sawBig := false
	for i := 0; i < 200; i++ {
		v := src.Next("req.size", i).AsInt()
		if v < 1 || v > 2*overflowBufLen {
			t.Fatalf("domain violated: %d", v)
		}
		if v > overflowBufLen {
			sawBig = true
		}
	}
	if !sawBig {
		t.Fatal("search source never samples oversized requests")
	}
}
