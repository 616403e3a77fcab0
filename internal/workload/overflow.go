package workload

import (
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// overflowBufLen is the fixed buffer the server copies requests into.
const overflowBufLen = 64

// Overflow is the paper's §3 example: a server copies each request into a
// fixed buffer without checking its length; a request longer than the
// buffer crashes the program. The root cause — the missing length check —
// is the negation of the fix's predicate ("reject the input when it
// exceeds the buffer"). The request sizes are a declared control stream,
// so an RCSE recording holds every one, the dangerous ones included.
func Overflow() *scenario.Scenario {
	return &scenario.Scenario{
		Name: "overflow",
		Description: "fixed-size buffer copied without a bounds check; requests " +
			"longer than the buffer crash the server (§3's fix-predicate example)",
		DefaultParams: scenario.Params{"requests": 12},
		DefaultSeed:   2, // one oversized request in this environment
		Build:         buildOverflow,
		Inputs: func(seed int64, p scenario.Params) vm.InputSource {
			return vm.InputSourceFunc(func(stream string, index int) trace.Value {
				h := vm.HashValue(seed, stream, index)
				// Mostly small requests; occasionally an oversized one.
				if h%7 == 0 {
					return trace.Int(overflowBufLen + 1 + h%64)
				}
				return trace.Int(1 + h%overflowBufLen)
			})
		},
		InputDomains: []scenario.InputDomain{
			{Stream: "req.size", Min: 1, Max: 2 * overflowBufLen},
		},
		Failure: scenario.FailureSpec{
			Name: "crash",
			Check: func(v *scenario.RunView) (bool, string) {
				if v.Result.Outcome != vm.OutcomeCrashed {
					return false, ""
				}
				return true, "overflow:segfault"
			},
		},
		RootCauses: []scenario.RootCause{{
			ID:          "missing-length-check",
			Description: "the copy loop never validates the request size against the buffer length",
			Present: func(v *scenario.RunView) bool {
				for _, val := range v.Result.InputsUsed["req.size"] {
					if val.AsInt() > overflowBufLen {
						return true
					}
				}
				return false
			},
		}},
		ControlStreams: []string{"req.size"},
	}
}

func buildOverflow(m *vm.Machine, p scenario.Params) func(*vm.Thread) {
	sizeIn := m.DeclareStream("req.size", trace.TaintControl)
	payloadIn := m.DeclareStream("req.payload", trace.TaintData)
	out := m.Stream("srv.served")
	sSize := m.Site("srv.sizein")
	sPayload := m.Site("srv.payloadin")
	sObserve := m.Site("srv.observe")
	sCopy := m.Site("srv.copy")
	sOut := m.Site("srv.out")
	buf := m.NewCells("srv.buf", overflowBufLen, trace.Int(0))
	requests := int(p.Get("requests", 12))

	return func(t *vm.Thread) {
		served := int64(0)
		for i := 0; i < requests; i++ {
			t.ClearTaint()
			size := t.Input(sSize, sizeIn).AsInt()
			// Invariant probe: healthy request sizes stay within the
			// buffer; the violation is what data-based selection keys on.
			t.Observe(sObserve, 0, trace.Int(size))
			t.ClearTaint()
			payload := t.Input(sPayload, payloadIn).AsInt()
			for j := int64(0); j < size; j++ {
				if j >= overflowBufLen {
					t.Crash(sCopy, "segfault: write %d past buffer of %d", j, overflowBufLen)
				}
				t.Store(sCopy, buf[j], trace.Int(j^payload))
			}
			served++
			t.Output(sOut, out, trace.Int(served))
		}
	}
}
