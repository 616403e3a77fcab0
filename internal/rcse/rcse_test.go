package rcse

import (
	"testing"

	"debugdet/internal/record"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// TestPolicy pins that the policy records the inputs of the named streams
// in full, including a stream the program registers only after the policy
// was built, and keeps every other event at the schedule floor.
func TestPolicy(t *testing.T) {
	m := vm.New(vm.Config{Seed: 1})
	data := m.Stream("data")
	p := NewPolicy(m, []string{"ctl", "late"})
	if p.Name() != "rcse" {
		t.Fatalf("policy name = %q", p.Name())
	}
	ctl := m.Stream("ctl")
	late := m.Stream("late") // registered after the build, as a thread body would
	for _, id := range []trace.ObjID{ctl, late, ctl} {
		e := trace.Event{Kind: trace.EvInput, Obj: id}
		if p.Level(&e) != record.LevelFull {
			t.Fatalf("input of control stream %q not recorded", m.StreamName(id))
		}
	}
	in := trace.Event{Kind: trace.EvInput, Obj: data}
	if got := p.Level(&in); got != record.LevelSched {
		t.Fatalf("data stream input recorded at %v, want sched", got)
	}
	store := trace.Event{Kind: trace.EvStore, Obj: ctl}
	if got := p.Level(&store); got != record.LevelSched {
		t.Fatalf("non-input event on the stream's object recorded at %v, want sched", got)
	}
}

// TestPolicyFloorIsSchedule pins the policy of a scenario that declares no
// control streams: every event, input included, is kept at the schedule
// floor.
func TestPolicyFloorIsSchedule(t *testing.T) {
	m := vm.New(vm.Config{Seed: 1})
	p := NewPolicy(m, nil)
	for _, e := range []trace.Event{{Kind: trace.EvStore}, {Kind: trace.EvInput, Obj: m.Stream("any")}} {
		if got := p.Level(&e); got != record.LevelSched {
			t.Fatalf("%v event recorded at %v, want sched (RCSE always keeps the thread schedule)", e.Kind, got)
		}
	}
}
