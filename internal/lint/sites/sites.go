// Package sites turns lock-order evidence into search hints: it runs the
// same Goodlock graph the detlint lockorder analyzer uses over a recorded
// execution and emits Suspects — lock pairs acquired in opposite orders
// without a common gate — that the inference engine (internal/infer) uses
// to prioritize its work.
//
// The static analyzer sees source; the VM sees traces. Both feed the one
// lockorder.Graph, so a pair flagged here is exactly a pair the analyzer
// would flag if it could see through the scenario's closures — and the
// corpus sweep test holds the two views to the same ground truth.
package sites

import (
	"fmt"
	"sort"

	"debugdet/internal/lint/lockorder"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Suspect is one implicated lock pair: two locks some contexts acquired
// in opposite orders with no shared gate lock — the ABBA precondition.
type Suspect struct {
	// Locks are the two lock names, sorted.
	Locks [2]string
	// Objs are the lock object IDs, aligned with Locks.
	Objs [2]trace.ObjID
	// Sites are the acquisition sites of the conflicting edges, sorted
	// and deduplicated: where full-fidelity recording pays off.
	Sites []trace.SiteID
	// Threads are the names of the acquiring contexts, sorted and
	// deduplicated.
	Threads []string
}

// String renders the suspect for reports.
func (s Suspect) String() string {
	return fmt.Sprintf("%s<->%s (threads %v)", s.Locks[0], s.Locks[1], s.Threads)
}

// Triage feeds one run's lock discipline through the Goodlock graph and
// returns the suspect lock pairs. A single run only exhibits a cycle when
// it happened to interleave both acquisition orders before finishing (or
// deadlocking); TriageSeeds composes several runs for robust evidence.
func Triage(v *scenario.RunView) []Suspect {
	g := lockorder.NewGraph()
	feed(g, v, 0)
	return FromCycles(g.Cycles())
}

// TriageSeeds triages s across several executions: it runs tries seeds
// starting at seed (0 = 16), feeds every run — completed or deadlocked —
// into one shared lock-order graph, and returns the combined suspects.
// Accumulating across runs is the standard Goodlock move: one run rarely
// exhibits both acquisition orders, but mutex objects and sites are
// registered deterministically, so their IDs are stable across runs of a
// scenario at fixed parameters and the evidence composes. p overrides
// scenario parameters (nil = defaults). runs is the executions spent.
func TriageSeeds(s *scenario.Scenario, seed int64, tries int, p scenario.Params) (suspects []Suspect, runs int) {
	if tries <= 0 {
		tries = 16
	}
	g := lockorder.NewGraph()
	for i := 0; i < tries; i++ {
		runs++
		feed(g, s.Exec(scenario.ExecOptions{Seed: seed + int64(i), Params: p}), i)
	}
	return FromCycles(g.Cycles()), runs
}

// runThread scopes an acquisition context to one run of the scan, so a
// deadlocked run's still-held locks cannot gate or extend another run's
// edges.
type runThread struct {
	run int
	tid trace.ThreadID
}

// feed replays one run's lock events into the graph. The VM emits EvLock
// on successful acquisition only — a thread blocked in a deadlock
// contributes no edge for the lock it never got.
func feed(g *lockorder.Graph, v *scenario.RunView, run int) {
	for i := range v.Trace.Events {
		e := &v.Trace.Events[i]
		//lint:exhaustive-default lock-order triage consumes only the mutex events; every other kind is deliberately invisible to the graph
		switch e.Kind {
		case trace.EvLock:
			g.Acquire(bodyID(v.Machine, e.TID, run), lockKey(v.Machine, e.Obj), e.Site)
		case trace.EvUnlock:
			g.Release(bodyID(v.Machine, e.TID, run), lockKey(v.Machine, e.Obj))
		}
	}
}

// FromCycles converts lock-order cycles (whose keys carry trace.ObjID
// identities, as Triage builds them) into Suspects.
func FromCycles(cycles []lockorder.Cycle) []Suspect {
	var out []Suspect
	for _, c := range cycles {
		out = append(out, fromCycle(c))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Locks[0] != out[j].Locks[0] {
			return out[i].Locks[0] < out[j].Locks[0]
		}
		return out[i].Locks[1] < out[j].Locks[1]
	})
	return out
}

func fromCycle(c lockorder.Cycle) Suspect {
	var s Suspect
	siteSeen := map[trace.SiteID]bool{}
	threadSeen := map[string]bool{}
	for i, e := range c.Edges {
		if i == 0 {
			k := [2]lockorder.Key{e.From, e.To}
			if k[1].Name < k[0].Name {
				k[0], k[1] = k[1], k[0]
			}
			for j, kk := range k {
				s.Locks[j] = kk.Name
				if id, ok := kk.Obj.(trace.ObjID); ok {
					s.Objs[j] = id
				}
			}
		}
		if id, ok := e.Tag.(trace.SiteID); ok && !siteSeen[id] {
			siteSeen[id] = true
			s.Sites = append(s.Sites, id)
		}
		if !threadSeen[e.Body.Name] {
			threadSeen[e.Body.Name] = true
			s.Threads = append(s.Threads, e.Body.Name)
		}
	}
	sort.Slice(s.Sites, func(i, j int) bool { return s.Sites[i] < s.Sites[j] })
	sort.Strings(s.Threads)
	return s
}

// bodyID is the trace-triage acquisition context: one thread of one run.
func bodyID(m *vm.Machine, tid trace.ThreadID, run int) lockorder.BodyID {
	name := m.ThreadName(tid)
	if name == "" {
		name = fmt.Sprintf("thread#%d", tid)
	}
	return lockorder.BodyID{ID: runThread{run: run, tid: tid}, Name: name}
}

// lockKey is the trace-triage lock identity: one mutex object.
func lockKey(m *vm.Machine, obj trace.ObjID) lockorder.Key {
	name := m.MutexName(obj)
	if name == "" {
		name = fmt.Sprintf("mutex#%d", obj)
	}
	return lockorder.Key{Obj: obj, Name: name}
}
