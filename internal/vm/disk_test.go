package vm

import (
	"testing"

	"debugdet/internal/trace"
)

// runDisk executes body on a one-thread machine with a single disk
// configured with the given faults, then returns the machine.
func runDisk(t *testing.T, faults DiskFaults, body func(th *Thread, disk trace.ObjID, site trace.SiteID)) *Machine {
	t.Helper()
	m := New(Config{Seed: 1, CollectTrace: true})
	disk := m.NewDisk("d0", faults)
	site := m.Site("test.disk")
	res := m.Run(func(th *Thread) { body(th, disk, site) })
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Terminal)
	}
	return m
}

func TestDiskWriteReadFsync(t *testing.T) {
	runDisk(t, DiskFaults{}, func(th *Thread, d trace.ObjID, s trace.SiteID) {
		th.DiskWrite(s, d, trace.Int(10))
		th.DiskWrite(s, d, trace.Int(20))
		if got := th.DiskFsync(s, d); got != 2 {
			t.Errorf("fsync watermark = %d, want 2", got)
		}
		th.DiskWrite(s, d, trace.Int(30))
		if got := th.DiskRead(s, d, 2).AsInt(); got != 30 {
			t.Errorf("read[2] = %d, want 30", got)
		}
		if v := th.DiskRead(s, d, 3); !v.IsNil() {
			t.Errorf("read past end = %v, want Nil", v)
		}
		if v := th.DiskRead(s, d, -1); !v.IsNil() {
			t.Errorf("read[-1] = %v, want Nil", v)
		}
	})
}

func TestDiskCrashDropsUnsyncedWrites(t *testing.T) {
	m := runDisk(t, DiskFaults{}, func(th *Thread, d trace.ObjID, s trace.SiteID) {
		th.DiskWrite(s, d, trace.Int(1))
		th.DiskFsync(s, d)
		th.DiskWrite(s, d, trace.Int(2))
		th.DiskWrite(s, d, trace.Int(3))
		if keep := th.DiskCrash(s, d); keep != 1 {
			t.Errorf("crash kept %d records, want 1", keep)
		}
		if got := th.DiskRead(s, d, 0).AsInt(); got != 1 {
			t.Errorf("survivor = %d, want 1", got)
		}
		if v := th.DiskRead(s, d, 1); !v.IsNil() {
			t.Errorf("volatile record survived the crash: %v", v)
		}
	})
	id, ok := m.DiskID("d0")
	if !ok {
		t.Fatal("disk d0 not found")
	}
	if m.DiskLen(id) != 1 || m.DiskDurable(id) != 1 {
		t.Fatalf("len=%d durable=%d, want 1/1", m.DiskLen(id), m.DiskDurable(id))
	}
}

func TestDiskTornWriteTruncatesFirstVolatile(t *testing.T) {
	const payload = "\x01\x02\x03\x04\x05\x06\x07\x08"
	runDisk(t, DiskFaults{TornBytes: 3}, func(th *Thread, d trace.ObjID, s trace.SiteID) {
		th.DiskWrite(s, d, trace.Blob(payload))
		th.DiskFsync(s, d)
		th.DiskWrite(s, d, trace.Blob(payload)) // first volatile: torn
		th.DiskWrite(s, d, trace.Blob(payload)) // second volatile: dropped
		if keep := th.DiskCrash(s, d); keep != 2 {
			t.Errorf("crash kept %d records, want 2 (durable + torn)", keep)
		}
		if got := th.DiskRead(s, d, 0); got.Str != payload {
			t.Errorf("durable record reads %q, want %q", got.Str, payload)
		}
		torn := th.DiskRead(s, d, 1)
		if torn.Kind != trace.VBytes || torn.Str != payload[:3] {
			t.Errorf("torn record reads %v %q, want the blob %q", torn.Kind, torn.Str, payload[:3])
		}
	})
}

func TestDiskTornWriteSkipsNonBytesRecords(t *testing.T) {
	runDisk(t, DiskFaults{TornBytes: 3}, func(th *Thread, d trace.ObjID, s trace.SiteID) {
		th.DiskWrite(s, d, trace.Int(7)) // volatile, not VBytes: no tear
		if keep := th.DiskCrash(s, d); keep != 0 {
			t.Errorf("crash kept %d records, want 0", keep)
		}
	})
}

func TestDiskFsyncReorderHoldsNewestRecordOnce(t *testing.T) {
	runDisk(t, DiskFaults{ReorderAt: 2}, func(th *Thread, d trace.ObjID, s trace.SiteID) {
		th.DiskWrite(s, d, trace.Int(1))
		if got := th.DiskFsync(s, d); got != 1 {
			t.Errorf("fsync#1 = %d, want 1", got)
		}
		th.DiskWrite(s, d, trace.Int(2))
		if got := th.DiskFsync(s, d); got != 1 {
			t.Errorf("fsync#2 = %d, want 1 (reordered past the newest record)", got)
		}
		th.DiskWrite(s, d, trace.Int(3))
		// The reorder fires exactly once: later fsyncs are honest again.
		if got := th.DiskFsync(s, d); got != 3 {
			t.Errorf("fsync#3 = %d, want 3", got)
		}
	})
}

func TestDiskBarrierIsNeverReordered(t *testing.T) {
	runDisk(t, DiskFaults{ReorderAt: 1}, func(th *Thread, d trace.ObjID, s trace.SiteID) {
		th.DiskWrite(s, d, trace.Int(1))
		if got := th.DiskFsync(s, d); got != 0 {
			t.Errorf("fsync#1 = %d, want 0 (reordered)", got)
		}
		if got := th.DiskBarrier(s, d); got != 1 {
			t.Errorf("barrier = %d, want 1", got)
		}
		if keep := th.DiskCrash(s, d); keep != 1 {
			t.Errorf("crash kept %d, want 1 after barrier", keep)
		}
	})
}

// snapAt snapshots the machine right after the event with sequence at-1 is
// applied — the checkpoint writer's capture point.
type snapAt struct {
	m    *Machine
	at   uint64
	snap *Snapshot
}

func (s *snapAt) OnEvent(e *trace.Event) uint64 {
	if s.snap == nil && e.Seq+1 == s.at {
		s.snap = s.m.Snapshot(e.TID)
	}
	return 0
}

// feedsFor derives per-thread feed entries from a complete event prefix —
// the same derivation the checkpoint package performs.
func feedsFor(events []trace.Event, seq uint64, threads int) [][]FeedEntry {
	feeds := make([][]FeedEntry, threads)
	for i := uint64(0); i < seq; i++ {
		e := &events[i]
		fe := FeedEntry{Kind: e.Kind, OK: true}
		switch e.Kind {
		case trace.EvLoad, trace.EvRecv, trace.EvInput, trace.EvDiskRead:
			fe.Val, fe.Taint = e.Val, e.Taint
		case trace.EvStore, trace.EvDiskWrite, trace.EvDiskFsync,
			trace.EvDiskBarrier, trace.EvDiskCrash:
			fe.Val = e.Val
		case trace.EvSpawn:
			fe.Val = trace.Int(int64(e.Obj))
		case trace.EvYield:
			fe.OK = false
		}
		feeds[e.TID] = append(feeds[e.TID], fe)
	}
	return feeds
}

// TestDiskSnapshotRestoreRoundTrip: a snapshot taken after a crash carries
// the disk image (including the dropped volatile tail), and Restore
// reinstalls it exactly — the contract checkpointed Seek relies on.
func TestDiskSnapshotRestoreRoundTrip(t *testing.T) {
	setup := func(m *Machine) func(*Thread) {
		d := m.NewDisk("d0", DiskFaults{})
		s := m.Site("test.disk")
		return func(th *Thread) {
			th.DiskWrite(s, d, trace.Int(11))
			th.DiskFsync(s, d)
			th.DiskWrite(s, d, trace.Blob("\x09\x09"))
			th.DiskCrash(s, d)
			th.DiskWrite(s, d, trace.Int(12))
		}
	}
	cfg := Config{Seed: 3, CollectTrace: true}
	m := New(cfg)
	body := setup(m)
	obs := &snapAt{m: m, at: 4} // right after the DiskCrash applies
	m.Attach(obs)
	res := m.Run(body)
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if obs.snap == nil {
		t.Fatal("snapshot point never reached")
	}
	snap := obs.snap
	if len(snap.Disks) != 1 {
		t.Fatalf("snapshot has %d disks, want 1", len(snap.Disks))
	}
	if d := snap.Disks[0]; d.Durable != 1 || len(d.Recs) != 1 || d.Fsyncs != 1 {
		t.Fatalf("snapshot disk = %+v, want 1 durable record after the crash", d)
	}

	feeds := feedsFor(res.Trace.Events, snap.Seq, len(snap.Threads))
	m2, err := Restore(cfg, setup, snap, feeds)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if err := snap.EqualState(m2.Snapshot(NoRunningThread)); err != nil {
		t.Fatalf("restored machine state differs from the snapshot: %v", err)
	}
	id, ok := m2.DiskID("d0")
	if !ok {
		t.Fatal("restored machine has no disk d0")
	}
	recs := m2.DiskRecords(id)
	if len(recs) != 1 || recs[0].AsInt() != 11 {
		t.Fatalf("restored records = %v, want [11]", recs)
	}
}

func TestDiskReadPropagatesTaint(t *testing.T) {
	m := New(Config{Seed: 1, CollectTrace: true})
	d := m.NewDisk("d0", DiskFaults{})
	in := m.DeclareStream("env.in", trace.TaintEnv)
	s := m.Site("test.disk")
	res := m.Run(func(th *Thread) {
		v := th.Input(s, in) // taints the thread with TaintEnv
		th.DiskWrite(s, d, v)
		th.ClearTaint()
		th.DiskRead(s, d, 0)
		if th.Taint()&trace.TaintEnv == 0 {
			t.Error("reading a tainted record did not taint the reader")
		}
	})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
}
