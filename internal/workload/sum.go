// Package workload catalogs the buggy-program corpus: every example the
// paper discusses plus additional scenarios for breadth. Each scenario
// declares its failure specification and its complete set of possible
// root causes, so the evaluation can compute debugging fidelity
// mechanically.
package workload

import (
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Sum is the paper's §2 example: a program that outputs the sum of two
// numbers, except that for inputs 2 and 2 it outputs 5 (an indexing bug in
// a lookup table). An output-deterministic replayer that records only the
// output may synthesize inputs 1 and 4 — the output matches, but 1+4=5 is
// not a failure at all, so the true root cause stays hidden (DF = 0).
func Sum() *scenario.Scenario {
	return &scenario.Scenario{
		Name: "sum",
		Description: "outputs a+b, but a bug makes 2+2 print 5; output-only " +
			"recording lets inference reproduce the output via 1+4, which is " +
			"not a failure (§2)",
		DefaultParams: scenario.Params{},
		DefaultSeed:   3, // production inputs are (2,2) for this seed
		Build:         buildSum,
		Inputs: func(seed int64, p scenario.Params) vm.InputSource {
			return vm.InputSourceFunc(func(stream string, index int) trace.Value {
				// One in three production environments feeds the buggy
				// pair; the default seed is one of them.
				if seed%3 == 0 {
					return trace.Int(2)
				}
				return trace.Int(vm.HashValue(seed, stream, index) % 10)
			})
		},
		InputDomains: []scenario.InputDomain{
			{Stream: "in.a", Min: 0, Max: 9},
			{Stream: "in.b", Min: 0, Max: 9},
		},
		Failure: scenario.FailureSpec{
			Name: "wrong-sum",
			Check: func(v *scenario.RunView) (bool, string) {
				a, okA := lastInput(v, "in.a")
				b, okB := lastInput(v, "in.b")
				out, okO := v.LastOutput("sum.out")
				if !okA || !okB || !okO {
					return false, ""
				}
				if out != a+b {
					return true, "sum:wrong-output"
				}
				return false, ""
			},
		},
		RootCauses: []scenario.RootCause{{
			ID:          "indexing-bug",
			Description: "the lookup table's entry for sum 4 holds 5 (off-by-one population); any inputs summing to 4 hit it",
			Present: func(v *scenario.RunView) bool {
				a, okA := lastInput(v, "in.a")
				b, okB := lastInput(v, "in.b")
				return okA && okB && a+b == 4
			},
		}},
		ControlStreams: []string{"in.a", "in.b"},
	}
}

func buildSum(m *vm.Machine, p scenario.Params) func(*vm.Thread) {
	inA := m.DeclareStream("in.a", trace.TaintData)
	inB := m.DeclareStream("in.b", trace.TaintData)
	out := m.Stream("sum.out")
	sRead := m.Site("sum.read")
	sCompute := m.Site("sum.compute")
	sWrite := m.Site("sum.write")
	table := m.NewCells("sum.table", 20, trace.Int(0))

	return func(t *vm.Thread) {
		a := t.Input(sRead, inA).AsInt()
		b := t.Input(sRead, inB).AsInt()
		// The program materializes small sums through a lookup table; the
		// entry for 4 was populated with 5 (the indexing bug): writing
		// row i+1's value into row i for i == 4.
		for i := int64(0); i < 20; i++ {
			val := i
			if i == 4 {
				val = 5
			}
			t.Store(sCompute, table[i], trace.Int(val))
		}
		idx := a + b
		sum := t.Load(sCompute, table[idx]).AsInt()
		t.Output(sWrite, out, trace.Int(sum))
	}
}

// lastInput fetches the final consumed value on an input stream.
func lastInput(v *scenario.RunView, stream string) (int64, bool) {
	vals := v.Result.InputsUsed[stream]
	if len(vals) == 0 {
		return 0, false
	}
	return vals[len(vals)-1].AsInt(), true
}
