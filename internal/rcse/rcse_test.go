package rcse

import (
	"testing"

	"debugdet/internal/invariant"
	"debugdet/internal/plane"
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

func TestCodeSelector(t *testing.T) {
	c := &plane.Classification{Planes: map[trace.SiteID]plane.Plane{
		1: plane.Control,
		2: plane.Data,
	}}
	sel := NewCodeSelector(c)

	ctrl := trace.Event{Kind: trace.EvStore, Site: 1}
	if sel.Demand(&ctrl) != record.LevelFull {
		t.Fatal("control-plane site not recorded fully")
	}
	data := trace.Event{Kind: trace.EvStore, Site: 2}
	if sel.Demand(&data) != record.LevelSched {
		t.Fatal("data-plane site not relaxed")
	}
	unknown := trace.Event{Kind: trace.EvStore, Site: 99}
	if sel.Demand(&unknown) != record.LevelFull {
		t.Fatal("unknown site must default to control (recorded)")
	}
	dataInput := trace.Event{Kind: trace.EvInput, Obj: 7, Site: 2}
	if sel.Demand(&dataInput) != record.LevelSched {
		t.Fatal("input at a data-plane site not relaxed")
	}
	terminal := trace.Event{Kind: trace.EvFail, Site: 2}
	if sel.Demand(&terminal) != record.LevelFull {
		t.Fatal("terminal events must always be recorded")
	}
}

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

func TestStreamSelector(t *testing.T) {
	sel := StreamSelector{7: true}
	ctl := trace.Event{Kind: trace.EvInput, Obj: 7}
	if sel.Demand(&ctl) != record.LevelFull {
		t.Fatal("control stream input not recorded")
	}
	data := trace.Event{Kind: trace.EvInput, Obj: 8}
	if sel.Demand(&data) != record.LevelSkip {
		t.Fatal("data stream input demanded")
	}
	store := trace.Event{Kind: trace.EvStore, Obj: 7}
	if sel.Demand(&store) != record.LevelSkip {
		t.Fatal("non-input event on the stream's object demanded")
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
	// Without code selection the declared stream is still recorded fully.
	input := trace.Event{Seq: 1, Kind: trace.EvInput, Obj: ctl}
	if setup.Policy.Level(&input) != record.LevelFull {
		t.Fatal("control stream not recorded without code selection")
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
