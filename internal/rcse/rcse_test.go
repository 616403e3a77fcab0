package rcse

import (
	"testing"

	"debugdet/internal/invariant"
	"debugdet/internal/record"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

func TestPolicyTakesMaxLevel(t *testing.T) {
	low := fixedSelector{level: record.LevelSched}
	high := fixedSelector{level: record.LevelFull}
	p := NewPolicy(low, high)
	e := trace.Event{Kind: trace.EvStore}
	if got := p.Level(&e); got != record.LevelFull {
		t.Fatalf("combined level = %v, want full", got)
	}
	if p.Name() != "rcse" {
		t.Fatalf("policy name = %q", p.Name())
	}
}

func TestPolicyFloorIsSchedule(t *testing.T) {
	p := NewPolicy() // no selectors at all
	e := trace.Event{Kind: trace.EvStore}
	if got := p.Level(&e); got != record.LevelSched {
		t.Fatalf("empty policy level = %v, want sched (RCSE always keeps the thread schedule)", got)
	}
}

type fixedSelector struct{ level record.Level }

func (f fixedSelector) Demand(*trace.Event) record.Level { return f.level }

func TestTriggerDialUpAndDown(t *testing.T) {
	tr := NewTrigger(10)
	mkEvent := func(seq uint64) *trace.Event { return &trace.Event{Seq: seq, Kind: trace.EvStore} }

	if tr.Demand(mkEvent(1)) != record.LevelSched {
		t.Fatal("unfired trigger demanded elevation")
	}
	tr.Fire()
	if tr.Fired() != 1 {
		t.Fatal("Fire did not arm the trigger")
	}
	if tr.Demand(mkEvent(2)) != record.LevelFull {
		t.Fatal("fired trigger did not demand full fidelity")
	}
	// Within the quiet period: still up.
	if tr.Demand(mkEvent(8)) != record.LevelFull {
		t.Fatal("trigger dialed down too early")
	}
	// Past the quiet period: dials down.
	if tr.Demand(mkEvent(50)) != record.LevelSched {
		t.Fatal("trigger did not dial down after the quiet period")
	}
	// Refiring re-arms relative to the latest seen event.
	tr.Fire()
	if tr.Demand(mkEvent(55)) != record.LevelFull {
		t.Fatal("refire did not re-arm")
	}
}

func TestTriggerZeroQuietPeriodStaysUp(t *testing.T) {
	tr := NewTrigger(0)
	tr.Fire()
	e := &trace.Event{Seq: 1 << 20, Kind: trace.EvStore}
	if tr.Demand(e) != record.LevelFull {
		t.Fatal("sticky trigger dialed down")
	}
}

// TestStreamSelector pins that the selector records the inputs of the
// named streams in full, including a stream the program registers only
// after the selector was built, and demands nothing else.
func TestStreamSelector(t *testing.T) {
	m := vm.New(vm.Config{Seed: 1})
	data := m.Stream("data")
	sel := NewStreamSelector(m, []string{"ctl", "late"})
	ctl := m.Stream("ctl")
	late := m.Stream("late") // registered after the build, as a thread body would
	for _, id := range []trace.ObjID{ctl, late, ctl} {
		e := trace.Event{Kind: trace.EvInput, Obj: id}
		if sel.Demand(&e) != record.LevelFull {
			t.Fatalf("input of control stream %q not recorded", m.StreamName(id))
		}
	}
	in := trace.Event{Kind: trace.EvInput, Obj: data}
	if sel.Demand(&in) != record.LevelSkip {
		t.Fatal("data stream input demanded")
	}
	store := trace.Event{Kind: trace.EvStore, Obj: ctl}
	if sel.Demand(&store) != record.LevelSkip {
		t.Fatal("non-input event on the stream's object demanded")
	}
}

// TestPolicyRecordsStreamPrefixes pins the prefix rule: once a draw of a
// stream is recorded below full, a trigger that dials up later cannot
// record a later draw of that stream in full, while a stream first drawn
// under the dial-up is recorded from its first draw.
func TestPolicyRecordsStreamPrefixes(t *testing.T) {
	tr := NewTrigger(0)
	p := NewPolicy(tr)
	input := func(seq uint64, obj trace.ObjID) record.Level {
		return p.Level(&trace.Event{Seq: seq, Kind: trace.EvInput, Obj: obj})
	}
	if input(1, 1) != record.LevelSched {
		t.Fatal("undemanded input recorded in full")
	}
	tr.Fire()
	if got := input(2, 1); got != record.LevelSched {
		t.Fatalf("a cut stream's later draw recorded at %v, want sched", got)
	}
	if got := input(3, 2); got != record.LevelFull {
		t.Fatalf("a stream first drawn under the dial-up recorded at %v, want full", got)
	}
	store := trace.Event{Seq: 4, Kind: trace.EvStore, Obj: 1}
	if p.Level(&store) != record.LevelFull {
		t.Fatal("the prefix rule capped a non-input event")
	}
}

func TestConfigBuildWiresDetectors(t *testing.T) {
	m := vm.New(vm.Config{Seed: 1, CollectTrace: true})
	ctl := m.DeclareStream("ctl", trace.TaintControl)
	inf := invariant.NewInferencer()
	inf.Observe(invariant.Key{Site: 1, Probe: 0}, trace.Int(5))
	inf.Observe(invariant.Key{Site: 1, Probe: 0}, trace.Int(5))

	cfg := Config{
		ControlStreams: []string{"ctl"},
		Race:           true,
		Invariants:     inf.Infer(),
	}
	setup := cfg.Build(m)
	if setup.Policy == nil {
		t.Fatal("no policy built")
	}
	if setup.RaceTrigger == nil {
		t.Fatal("race detector not wired")
	}
	if setup.InvariantTrigger == nil {
		t.Fatal("invariant monitor not wired")
	}
	if len(setup.Observers) != 2 {
		t.Fatalf("observers = %d, want 2", len(setup.Observers))
	}
	// The declared stream is recorded fully.
	input := trace.Event{Seq: 1, Kind: trace.EvInput, Obj: ctl}
	if setup.Policy.Level(&input) != record.LevelFull {
		t.Fatal("control stream not recorded")
	}
	// The race trigger must elevate the policy once fired.
	e := trace.Event{Seq: 5, Kind: trace.EvStore, Site: 3}
	if setup.Policy.Level(&e) != record.LevelSched {
		t.Fatal("unfired policy elevated a store")
	}
	setup.RaceTrigger.Fire()
	if setup.Policy.Level(&e) != record.LevelFull {
		t.Fatal("fired race trigger did not elevate the policy")
	}
}

func TestRaceTriggerFiresOnRacyRun(t *testing.T) {
	m := vm.New(vm.Config{Seed: 2, CollectTrace: true})
	cell := m.NewCell("c", trace.Int(0))
	site := m.Site("w")
	sp := m.Site("spawn")

	cfg := Config{Race: true}
	setup := cfg.Build(m)
	for _, o := range setup.Observers {
		m.Attach(o)
	}
	w := func(t *vm.Thread) {
		for i := 0; i < 10; i++ {
			v := t.Load(site, cell)
			t.Store(site, cell, trace.Int(v.AsInt()+1))
		}
	}
	m.Run(func(t *vm.Thread) {
		t.Spawn(sp, "a", w)
		t.Spawn(sp, "b", w)
	})
	if setup.RaceTrigger.Fired() == 0 {
		t.Fatal("race trigger never fired on a racy run")
	}
}
