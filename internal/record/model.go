// Package record implements the runtime recorders for every determinism
// model in the paper's spectrum (Fig. 1):
//
//   - perfect determinism: every event is persisted in full, in global
//     order — the conservative baseline;
//   - value determinism (iDNA [5]): per-thread value logs — every value
//     read and written at every execution point, but no cross-thread
//     ordering;
//   - output determinism (ODR [2], lightest scheme): only the program's
//     outputs;
//   - failure determinism (ESD [12]): nothing at runtime — only the
//     failure signature extracted post-mortem from the bug report;
//   - debug determinism via root cause-driven selectivity (RCSE, §3.1):
//     the thread schedule plus every input of the declared control
//     streams, relaxing the data plane (§4: "recording just the data on
//     control-plane channels and the thread schedule").
//
// A recorder is a vm.Observer: it sees every event, persists it in full or
// not as its Policy says, keeps the thread schedule when the policy does
// (RCSE's alone), and returns the virtual-cycle cost of that work — which
// is how recording overhead enters the execution's virtual time.
//
// The RCSE policy (RCSEPolicy) records every input drawn from the declared
// control streams in full and keeps every other event as its schedule
// entry only. So each input stream is recorded entirely or not at all, and
// Recording.InputsByStream is index-exact. The paper's other selectors are
// not implemented, because none changed a replay (DESIGN.md §2): code-based
// selection (§3.1.1) recorded sites that hold nothing a replay forces, and
// the invariant and race triggers (§3.1.2, §3.1.3) fire after the
// root-cause draw they would need to record.
//
// The RCSE replayer (replay.Replay, model debug-rcse) forces the schedule
// and every recorded input, and re-synthesizes the rest by search. It reads
// the recording alone, never the declared streams.
package record

import "fmt"

// Model identifies a determinism model.
type Model uint8

// Models, in the chronological order of Fig. 1.
const (
	Perfect Model = iota
	Value
	Output
	Failure
	DebugRCSE
)

var modelNames = [...]string{"perfect", "value", "output", "failure", "debug-rcse"}

// String returns the lower-case model name.
func (m Model) String() string {
	if int(m) < len(modelNames) {
		return modelNames[m]
	}
	return fmt.Sprintf("model(%d)", uint8(m))
}

// ParseModel resolves a model name.
func ParseModel(s string) (Model, error) {
	for i, n := range modelNames {
		if n == s {
			return Model(i), nil
		}
	}
	return 0, fmt.Errorf("record: unknown model %q", s)
}

// AllModels lists every model, for sweeps.
func AllModels() []Model {
	return []Model{Perfect, Value, Output, Failure, DebugRCSE}
}
