package scenario

import (
	"testing"

	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

func TestParamsCloneAndGet(t *testing.T) {
	base := Params{"a": 1, "b": 2}
	c := base.Clone(Params{"b": 9, "c": 3})
	if base["b"] != 2 {
		t.Fatal("Clone mutated the receiver")
	}
	if c["a"] != 1 || c["b"] != 9 || c["c"] != 3 {
		t.Fatalf("Clone = %v", c)
	}
	if c.Get("missing", 42) != 42 || c.Get("a", 0) != 1 {
		t.Fatal("Get defaults broken")
	}
	if s := c.String(); s != "a=1 b=9 c=3" {
		t.Fatalf("String = %q (must be sorted and stable)", s)
	}
}

func minimalScenario() *Scenario {
	return &Scenario{
		Name:          "mini",
		DefaultParams: Params{"n": 3},
		Build: func(m *vm.Machine, p Params) func(*vm.Thread) {
			in := m.DeclareStream("x", trace.TaintData)
			out := m.Stream("y")
			s := m.Site("s")
			n := int(p.Get("n", 1))
			return func(t *vm.Thread) {
				for i := 0; i < n; i++ {
					v := t.Input(s, in)
					t.Output(s, out, v)
				}
			}
		},
		Inputs: func(seed int64, p Params) vm.InputSource {
			return vm.SeededInputs(seed, 100)
		},
		InputDomains: []InputDomain{{Stream: "x", Min: 10, Max: 19}},
		Failure: FailureSpec{
			Name: "none",
			Check: func(v *RunView) (bool, string) {
				return false, ""
			},
		},
		RootCauses: []RootCause{{
			ID:      "rc",
			Present: func(v *RunView) bool { return false },
		}},
	}
}

func TestExecRunsAndStampsHeader(t *testing.T) {
	s := minimalScenario()
	v := s.Exec(ExecOptions{Seed: 4, Params: Params{"n": 5}})
	if v.Result.Outcome != vm.OutcomeOK {
		t.Fatalf("outcome = %v", v.Result.Outcome)
	}
	if len(v.Result.Outputs["y"]) != 5 {
		t.Fatalf("outputs = %d, want 5", len(v.Result.Outputs["y"]))
	}
	if v.Trace.Header.Scenario != "mini" || v.Trace.Header.Seed != 4 {
		t.Fatalf("header not stamped: %+v", v.Trace.Header)
	}
	if v.Trace.Header.Params["n"] != 5 {
		t.Fatal("params not stamped")
	}
}

func TestExecParamOverridesDoNotStick(t *testing.T) {
	s := minimalScenario()
	s.Exec(ExecOptions{Seed: 1, Params: Params{"n": 7}})
	if s.DefaultParams["n"] != 3 {
		t.Fatal("Exec mutated the scenario's defaults")
	}
}

func TestDomainInputsRespectDeclaredRanges(t *testing.T) {
	s := minimalScenario()
	src := s.SearchSource(9)
	for i := 0; i < 100; i++ {
		v := src.Next("x", i).AsInt()
		if v < 10 || v > 19 {
			t.Fatalf("domain [10,19] violated: %d", v)
		}
	}
	// Undeclared streams still produce something bounded.
	v := src.Next("other", 0).AsInt()
	if v < 0 || v >= 1024 {
		t.Fatalf("undeclared stream value %d out of default bounds", v)
	}
}

func TestDomainInputsDeterministic(t *testing.T) {
	s := minimalScenario()
	a, b := s.SearchSource(5), s.SearchSource(5)
	for i := 0; i < 50; i++ {
		if !a.Next("x", i).Equal(b.Next("x", i)) {
			t.Fatal("same-seed domain inputs differ")
		}
	}
	c := s.SearchSource(6)
	same := true
	for i := 0; i < 50; i++ {
		if !a.Next("x", i).Equal(c.Next("x", i)) {
			same = false
		}
	}
	if same {
		t.Fatal("different-seed domain inputs identical")
	}
}

func TestPresentCausesOrder(t *testing.T) {
	s := minimalScenario()
	s.RootCauses = []RootCause{
		{ID: "b", Present: func(*RunView) bool { return true }},
		{ID: "a", Present: func(*RunView) bool { return true }},
		{ID: "c", Present: func(*RunView) bool { return false }},
	}
	v := s.Exec(ExecOptions{Seed: 1})
	got := s.PresentCauses(v)
	if len(got) != 2 || got[0] != "b" || got[1] != "a" {
		t.Fatalf("PresentCauses = %v, want declaration order [b a]", got)
	}
}
