package vm

import (
	"fmt"
	"testing"

	"debugdet/internal/trace"
)

// feedObjs are the objects feedOps operate on.
type feedObjs struct {
	s                                     trace.SiteID
	cell, mu, ch, in, out, disk, holdChan trace.ObjID
}

func newFeedObjs(m *Machine) feedObjs {
	return feedObjs{
		s:        m.Site("s"),
		cell:     m.NewCell("cell", trace.Int(0)),
		mu:       m.NewMutex("mu"),
		ch:       m.NewChan("ch", 1),
		in:       m.DeclareStream("in", trace.TaintEnv),
		out:      m.Stream("out"),
		disk:     m.NewDisk("disk", DiskFaults{}),
		holdChan: m.NewChan("hold", 1),
	}
}

// feedOps is every Thread operation method, issued once by do; op is the
// name a restore-divergence error reports for it.
var feedOps = []struct {
	method, op string
	do         func(t *Thread, o feedObjs)
}{
	{"Load", "load", func(t *Thread, o feedObjs) { t.Load(o.s, o.cell) }},
	{"Store", "store", func(t *Thread, o feedObjs) { t.Store(o.s, o.cell, trace.Int(1)) }},
	{"Add", "store", func(t *Thread, o feedObjs) { t.Add(o.s, o.cell, 1) }},
	{"Lock", "lock", func(t *Thread, o feedObjs) { t.Lock(o.s, o.mu) }},
	{"Unlock", "unlock", func(t *Thread, o feedObjs) { t.Unlock(o.s, o.mu) }},
	{"Send", "send", func(t *Thread, o feedObjs) { t.Send(o.s, o.ch, trace.Int(1)) }},
	{"Recv", "recv", func(t *Thread, o feedObjs) { t.Recv(o.s, o.ch) }},
	{"TrySend", "try-send", func(t *Thread, o feedObjs) { t.TrySend(o.s, o.ch, trace.Int(1)) }},
	{"TryRecv", "try-recv", func(t *Thread, o feedObjs) { t.TryRecv(o.s, o.ch) }},
	{"RecvTimeout", "recv-timeout", func(t *Thread, o feedObjs) { t.RecvTimeout(o.s, o.ch, 10) }},
	{"Input", "input", func(t *Thread, o feedObjs) { t.Input(o.s, o.in) }},
	{"Output", "output", func(t *Thread, o feedObjs) { t.Output(o.s, o.out, trace.Int(1)) }},
	{"Yield", "yield", func(t *Thread, o feedObjs) { t.Yield(o.s) }},
	{"Sleep", "sleep", func(t *Thread, o feedObjs) { t.Sleep(o.s, 10) }},
	{"Observe", "observe", func(t *Thread, o feedObjs) { t.Observe(o.s, 0, trace.Int(1)) }},
	{"DiskWrite", "disk-write", func(t *Thread, o feedObjs) { t.DiskWrite(o.s, o.disk, trace.Int(1)) }},
	{"DiskRead", "disk-read", func(t *Thread, o feedObjs) { t.DiskRead(o.s, o.disk, 0) }},
	{"DiskFsync", "disk-fsync", func(t *Thread, o feedObjs) { t.DiskFsync(o.s, o.disk) }},
	{"DiskBarrier", "disk-barrier", func(t *Thread, o feedObjs) { t.DiskBarrier(o.s, o.disk) }},
	{"DiskCrash", "disk-crash", func(t *Thread, o feedObjs) { t.DiskCrash(o.s, o.disk) }},
	{"Fail", "fail", func(t *Thread, o feedObjs) { t.Fail(o.s, "fail") }},
	{"Crash", "crash", func(t *Thread, o feedObjs) { t.Crash(o.s, "crash") }},
	{"exit", "exit", func(t *Thread, o feedObjs) { t.exit() }},
	{"Spawn", "spawn", func(t *Thread, o feedObjs) { t.Spawn(o.s, "child", func(*Thread) {}) }},
	{"SpawnDaemon", "spawn", func(t *Thread, o feedObjs) { t.SpawnDaemon(o.s, "child", func(*Thread) {}) }},
}

// shapeSnapshot is a snapshot of the program setup builds, before it runs,
// with the given threads: enough for Restore to start feed replay.
func shapeSnapshot(setup func(*Machine) func(*Thread), threads ...ThreadSnap) *Snapshot {
	m := New(Config{})
	setup(m)
	s := m.Snapshot(NoRunningThread)
	s.Threads = threads
	return s
}

// TestFeedReplayChecksEveryOp: no op method answers from the feed without
// the restore checks. Every method, fed an entry of a kind it cannot have
// produced, fails the restore with the divergence error naming its op; and
// every method used on another thread's *Thread during feed replay is the
// calling thread's restore error, whether that thread is parked, finished or
// not replayed yet.
func TestFeedReplayChecksEveryOp(t *testing.T) {
	for _, op := range feedOps {
		setup := func(m *Machine) func(*Thread) {
			o := newFeedObjs(m)
			return func(t *Thread) { op.do(t, o) }
		}
		wrong := trace.EvObserve
		if op.op == "observe" {
			wrong = trace.EvLoad
		}
		snap := shapeSnapshot(setup, ThreadSnap{Name: "main"})
		_, err := Restore(Config{Seed: 1}, setup, snap, [][]FeedEntry{{{Kind: wrong}}})
		want := fmt.Sprintf("vm: restore: thread 0 (main): restore divergence: op %s, feed has %s event", op.op, wrong)
		if err == nil || err.Error() != want {
			t.Errorf("%s fed a %s entry: restore error %v, want %q", op.method, wrong, err, want)
		}
	}

	// main spawns b, d, a and c; b and c park at once, d finishes, and a
	// replays a yield, then uses a foreign thread.
	for _, target := range []struct {
		state string
		id    int
	}{{"parked", 1}, {"finished", 2}, {"not yet replayed", 4}} {
		for _, op := range feedOps {
			setup := func(m *Machine) func(*Thread) {
				o := newFeedObjs(m)
				park := func(t *Thread) { t.Recv(o.s, o.holdChan) }
				return func(t *Thread) {
					t.Spawn(o.s, "b", park)
					t.Spawn(o.s, "d", func(*Thread) {})
					t.Spawn(o.s, "a", func(t *Thread) {
						t.Yield(o.s)
						op.do(t.m.threads[target.id], o)
						park(t)
					})
					t.Spawn(o.s, "c", park)
					park(t)
				}
			}
			snap := shapeSnapshot(setup, ThreadSnap{Name: "main"}, ThreadSnap{Name: "b"},
				ThreadSnap{Name: "d", Done: true}, ThreadSnap{Name: "a"}, ThreadSnap{Name: "c"})
			spawn := func(id int64) FeedEntry { return FeedEntry{Kind: trace.EvSpawn, Val: trace.Int(id), OK: true} }
			feeds := [][]FeedEntry{
				{spawn(1), spawn(2), spawn(3), spawn(4)},
				nil,
				{{Kind: trace.EvExit, OK: true}},
				{{Kind: trace.EvYield}},
				nil,
			}
			_, err := Restore(Config{Seed: 1}, setup, snap, feeds)
			name := snap.Threads[target.id].Name
			want := fmt.Sprintf("vm: restore: thread 3 (a): vm: thread %q used from thread \"a\"'s body", name)
			if err == nil || err.Error() != want {
				t.Errorf("%s on a %s thread during feed replay: restore error %v, want %q", op.method, target.state, err, want)
			}
		}
	}
}
