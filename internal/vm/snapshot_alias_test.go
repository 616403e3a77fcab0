package vm

import (
	"reflect"
	"runtime"
	"testing"

	"debugdet/internal/trace"
)

// A snapshot's stream histories are capacity-limited prefixes of the live
// machine's arrays, not copies (see StreamSnap). These tests pin that the
// sharing is invisible: a snapshot never changes after capture, however
// far the machine runs on, and capture does not pay for the history.

// everyN snapshots the machine after every n-th event and keeps, beside
// each snapshot, a private deep copy of its histories taken at that moment.
type everyN struct {
	m      *Machine
	n      uint64
	snaps  []*Snapshot
	copies []*Snapshot
}

func (o *everyN) OnEvent(e *trace.Event) uint64 {
	if (e.Seq+1)%o.n == 0 && !e.Kind.IsTerminal() {
		s := o.m.Snapshot(e.TID)
		c := *s
		c.Streams = make([]StreamSnap, len(s.Streams))
		for i, st := range s.Streams {
			c.Streams[i] = st
			c.Streams[i].Inputs = append([]trace.Value(nil), st.Inputs...)
			c.Streams[i].Outputs = append([]trace.Value(nil), st.Outputs...)
		}
		o.snaps, o.copies = append(o.snaps, s), append(o.copies, &c)
	}
	return 0
}

// echoProgram: two workers each copy inputs from their own stream to a
// shared output stream, so histories grow through the whole run and their
// arrays are reallocated many times after the first snapshots.
func echoProgram(rounds int) func(*Machine) func(*Thread) {
	return func(m *Machine) func(*Thread) {
		site := m.Site("echo")
		out := m.Stream("out")
		worker := func(name string) func(*Thread) {
			in := m.DeclareStream(name, trace.TaintEnv)
			return func(th *Thread) {
				for i := 0; i < rounds; i++ {
					th.Output(site, out, th.Input(site, in))
				}
			}
		}
		a, b := worker("in.a"), worker("in.b")
		return func(th *Thread) {
			th.Spawn(site, "a", a)
			th.Spawn(site, "b", b)
		}
	}
}

func TestSnapshotsAreImmutableAfterCapture(t *testing.T) {
	cfg := Config{Seed: 7, Inputs: SeededInputs(7, 1000), CollectTrace: true}
	setup := echoProgram(300)
	m := New(cfg)
	body := setup(m)
	obs := &everyN{m: m, n: 64}
	m.Attach(obs)
	res := m.Run(body)
	if res.Outcome != OutcomeOK || len(obs.snaps) < 10 {
		t.Fatalf("outcome %v with %d snapshots", res.Outcome, len(obs.snaps))
	}
	for i, snap := range obs.snaps {
		if err := snap.EqualState(obs.copies[i]); err != nil {
			t.Fatalf("snapshot at %d changed after capture: %v", snap.Seq, err)
		}
		if !reflect.DeepEqual(snap.Streams, obs.copies[i].Streams) {
			t.Fatalf("snapshot at %d: stream histories changed after capture", snap.Seq)
		}
		// Restoring from the (shared) snapshot and replaying the suffix
		// must reproduce the original run — and leave the snapshot alone.
		rcfg := cfg
		rcfg.Scheduler = NewReplayScheduler(res.Trace.Schedule()[snap.SchedPos:])
		m2, err := Restore(rcfg, setup, snap, feedsFor(res.Trace.Events, snap.Seq, len(snap.Threads)))
		if err != nil {
			t.Fatalf("restore at %d: %v", snap.Seq, err)
		}
		m2.Continue(0)
		res2 := m2.Finish()
		if !reflect.DeepEqual(res2.Trace.Events, res.Trace.Events[snap.Seq:]) {
			t.Fatalf("suffix replayed from the snapshot at %d differs from the original run", snap.Seq)
		}
		if !reflect.DeepEqual(res2.Outputs, res.Outputs) {
			t.Fatalf("outputs replayed from the snapshot at %d differ", snap.Seq)
		}
		if !reflect.DeepEqual(snap.Streams, obs.copies[i].Streams) {
			t.Fatalf("restoring the snapshot at %d modified it", snap.Seq)
		}
	}
}

// TestSnapshotCostIgnoresHistory: capture on a machine that has emitted
// 10k stream values allocates for its live state (a thread, a stream
// table), not for the ~560 KB of history. The bound is per capture,
// averaged over many, so that allocations the process makes elsewhere
// between the two reads of the counters do not count against it.
func TestSnapshotCostIgnoresHistory(t *testing.T) {
	const values = 10000
	m := New(Config{Seed: 1})
	site, out := m.Site("emit"), m.Stream("out")
	m.Start(func(th *Thread) {
		for i := 0; i <= values; i++ {
			th.Output(site, out, trace.Int(int64(i)))
		}
	})
	m.Continue(values)
	defer m.Finish()

	const captures = 64
	var before, after runtime.MemStats
	var snap *Snapshot
	runtime.ReadMemStats(&before)
	for range captures {
		snap = m.Snapshot(NoRunningThread)
	}
	runtime.ReadMemStats(&after)
	if got := len(snap.Streams[out].Outputs); got != values {
		t.Fatalf("snapshot holds %d outputs, want %d", got, values)
	}
	if alloc := (after.TotalAlloc - before.TotalAlloc) / captures; alloc > 4<<10 {
		t.Fatalf("Snapshot allocated %d bytes per capture with %d values of history; it must not copy the history", alloc, values)
	}
}

// TestRestoreSharesHistories: a restored machine appends after its
// snapshot's stream histories instead of copying them, so a restore
// allocates the same at an early and a late snapshot and the snapshot's
// arrays never change. What the machine then reports — its Result, and a
// snapshot it takes after appending — holds the whole histories of a fresh
// run.
func TestRestoreSharesHistories(t *testing.T) {
	cfg := Config{Seed: 7, Inputs: SeededInputs(7, 1000), CollectTrace: true}
	setup := echoProgram(300)
	m := New(cfg)
	body := setup(m)
	obs := &everyN{m: m, n: 64}
	m.Attach(obs)
	res := m.Run(body)
	if res.Outcome != OutcomeOK || len(obs.snaps) < 10 {
		t.Fatalf("outcome %v with %d snapshots", res.Outcome, len(obs.snaps))
	}
	restore := func(snap *Snapshot, feeds [][]FeedEntry) *Machine {
		rcfg := cfg
		rcfg.Scheduler = NewReplayScheduler(res.Trace.Schedule()[snap.SchedPos:])
		m2, err := Restore(rcfg, setup, snap, feeds)
		if err != nil {
			t.Fatalf("restore at %d: %v", snap.Seq, err)
		}
		return m2
	}

	// The bytes one restore allocates, averaged over many so that
	// allocations elsewhere in the process between the two reads of the
	// counters hardly count.
	cost := func(snap *Snapshot) uint64 {
		feeds := feedsFor(res.Trace.Events, snap.Seq, len(snap.Threads))
		const restores = 32
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range restores {
			End(restore(snap, feeds))
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / restores
	}
	early, late := obs.snaps[1], obs.snaps[len(obs.snaps)-1]
	history := 0
	for _, st := range late.Streams {
		history += len(st.Inputs) + len(st.Outputs)
	}
	earlyCost, lateCost := cost(early), cost(late)
	t.Logf("restore allocates %d B at event %d, %d B at event %d (%d history values)", earlyCost, early.Seq, lateCost, late.Seq, history)
	if history < 1000 || lateCost > earlyCost+1<<10 {
		t.Fatalf("restore allocates %d B at event %d but %d B at event %d, with %d history values: it copies the histories",
			earlyCost, early.Seq, lateCost, late.Seq, history)
	}

	for i, snap := range obs.snaps[:len(obs.snaps)-1] {
		feeds := feedsFor(res.Trace.Events, snap.Seq, len(snap.Threads))
		// Appending until the next snapshot's position, then capturing
		// there, must see the histories the fresh run had at that point.
		next := obs.snaps[i+1]
		m2 := restore(snap, feeds)
		m2.Continue(next.Seq)
		if err := m2.Snapshot(NoRunningThread).EqualState(next); err != nil {
			t.Fatalf("restored at %d, snapshot at %d differs from the fresh run's: %v", snap.Seq, next.Seq, err)
		}
		m2.Continue(0)
		res2 := m2.Finish()
		// Without a snapshot in between, the Result joins the histories.
		m3 := restore(snap, feeds)
		m3.Continue(0)
		res3 := m3.Finish()
		for _, r := range []*Result{res2, res3} {
			if !reflect.DeepEqual(r.Outputs, res.Outputs) || !reflect.DeepEqual(r.InputsUsed, res.InputsUsed) {
				t.Fatalf("restored at %d: result histories differ from the fresh run's", snap.Seq)
			}
		}
		if !reflect.DeepEqual(snap.Streams, obs.copies[i].Streams) {
			t.Fatalf("restored machines appending after the snapshot at %d changed it", snap.Seq)
		}
	}
}

// TestRecycleLeavesSnapshotsAlone: a recycled machine appends its run's
// inputs and outputs into the arrays its last run left, except when a
// snapshot reads them. A machine snapshotted while it ran holds the
// snapshot's prefixes, and a restored one that appended nothing to a
// stream keeps the snapshot's own array as that stream's history, so
// recycling either and running again must leave the snapshot's
// histories as they were.
func TestRecycleLeavesSnapshotsAlone(t *testing.T) {
	cfg := Config{Seed: 7, Inputs: SeededInputs(7, 1000), CollectTrace: true}
	setup := echoProgram(300)
	m := New(cfg)
	body := setup(m)
	obs := &everyN{m: m, n: 64}
	m.Attach(obs)
	res := m.Run(body)
	if res.Outcome != OutcomeOK || len(obs.snaps) < 2 {
		t.Fatalf("outcome %v with %d snapshots", res.Outcome, len(obs.snaps))
	}
	snap := obs.snaps[1]
	restored, err := Restore(cfg, setup, snap, feedsFor(res.Trace.Events, snap.Seq, len(snap.Threads)))
	if err != nil {
		t.Fatal(err)
	}
	restored.Finish() // abandoned at the snapshot: every history is the snapshot's array
	other := Config{Seed: 9, Inputs: SeededInputs(9, 1000), CollectTrace: true}
	for _, tc := range []struct {
		name string
		dead *Machine
	}{{"restored", restored}, {"snapshotted", m}} {
		t.Run(tc.name, func(t *testing.T) {
			m2 := Recycle(tc.dead, other, nil)
			if m2 != tc.dead {
				t.Fatal("a finished machine was not recycled")
			}
			if res2 := m2.Run(setup(m2)); res2.Outcome != OutcomeOK {
				t.Fatalf("recycled run: outcome %v", res2.Outcome)
			}
			for i, snap := range obs.snaps {
				if !reflect.DeepEqual(snap.Streams, obs.copies[i].Streams) {
					t.Fatalf("the recycled machine's run changed the histories of the snapshot at %d", snap.Seq)
				}
			}
		})
	}
}
