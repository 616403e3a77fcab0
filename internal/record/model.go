// Package record implements the runtime recorders for every determinism
// model in the paper's spectrum (Fig. 1):
//
//   - perfect determinism: every event is persisted in full, including the
//     global scheduling order — the conservative baseline;
//   - value determinism (iDNA [5]): per-thread value logs — every value
//     read and written at every execution point, but no cross-thread
//     ordering;
//   - output determinism (ODR [2], lightest scheme): only the program's
//     outputs;
//   - failure determinism (ESD [12]): nothing at runtime — only the
//     failure signature extracted post-mortem from the bug report;
//   - debug determinism via RCSE (§3.1): the thread schedule plus every
//     input of the declared control streams (the policy itself lives in
//     the rcse package).
//
// A recorder is a vm.Observer: it sees every event, decides a fidelity
// level for it via its Policy, persists accordingly, and returns the
// virtual-cycle cost of that work — which is how recording overhead enters
// the execution's virtual time.
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
