package replay

import (
	"testing"

	"debugdet/internal/progen"
	"debugdet/internal/record"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// peekPin wraps a scheduler and compares, on every pick, the VM's peek at
// the picked thread's pending op with the event that op then emits: kind,
// site and object must agree whenever either kind is value-logged. The
// value-guided scheduler advances, holds back or rejects a thread on that
// peek, so a peek that disagrees with apply misreads the log.
type peekPin struct {
	vm.Scheduler
	t       testing.TB
	name    string
	picked  trace.ThreadID
	peek    vm.PendingOp
	peeked  bool
	checked int
}

// Pick implements vm.Scheduler.
func (p *peekPin) Pick(m *vm.Machine, enabled []*vm.Thread) *vm.Thread {
	th := p.Scheduler.Pick(m, enabled)
	p.peeked = false
	if th != nil {
		p.picked = th.ID()
		if p.peek, p.peeked = m.PeekEvent(th); !p.peeked {
			p.t.Errorf("%s: picked thread %d cannot be peeked at event %d", p.name, th.ID(), m.Seq())
		}
	}
	return th
}

// OnEvent implements vm.Observer: it checks the picked op's event and hands
// every event on to the wrapped scheduler if that observes events too.
func (p *peekPin) OnEvent(e *trace.Event) uint64 {
	if p.peeked && e.TID == p.picked {
		p.peeked = false
		if record.ValueLogged(e.Kind) || record.ValueLogged(p.peek.Kind) {
			p.checked++
			if p.peek.Kind != e.Kind || p.peek.Site != e.Site || p.peek.Obj != e.Obj {
				p.t.Errorf("%s: event %d: peeked %s site %d obj %d, applied %s site %d obj %d",
					p.name, e.Seq, p.peek.Kind, p.peek.Site, p.peek.Obj, e.Kind, e.Site, e.Obj)
			}
		}
	}
	if o, ok := p.Scheduler.(vm.Observer); ok {
		return o.OnEvent(e)
	}
	return 0
}

// TestPeekedEqualsApplied pins "peeked ≡ applied" over every corpus
// scenario's value replay and 200 generated programs'.
func TestPeekedEqualsApplied(t *testing.T) {
	checked := 0
	pin := func(s *scenario.Scenario, name string, seed int64, params scenario.Params) {
		rec, _, err := record.Record(s, record.Value, seed, params)
		if err != nil {
			t.Fatal(err)
		}
		inputs := newStagedInputs(vm.ZeroInputs)
		sched := newValueGuidedScheduler(rec, inputs)
		p := &peekPin{Scheduler: sched, t: t, name: name}
		s.Exec(scenario.ExecOptions{
			Seed:            rec.Seed,
			Params:          rec.Params,
			Scheduler:       p,
			Inputs:          inputs,
			ObserverFactory: func(*vm.Machine) []vm.Observer { return []vm.Observer{p} },
			RelaxTime:       true,
		})
		if !sched.Done() {
			t.Errorf("%s: value replay stopped short of its log", name)
		}
		checked += p.checked
	}
	for _, s := range workload.All() {
		pin(s, s.Name, s.DefaultSeed, nil)
	}
	for seed := int64(0); seed < 200; seed++ {
		g := progen.ForSeed(seed)
		pin(g.Scenario, g.Family.String(), g.Seed, g.Params)
	}
	if checked == 0 {
		t.Fatal("no value-logged pick was checked")
	}
}
