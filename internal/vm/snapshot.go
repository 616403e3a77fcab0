package vm

import (
	"errors"
	"fmt"

	"debugdet/internal/trace"
)

// This file implements deterministic VM state snapshots and mid-trace
// restore: the substrate of checkpointed seek and segmented parallel
// replay (see DESIGN.md §5).
//
// A Snapshot captures everything the machine itself owns at an event
// boundary: data state (cells, mutexes, channels, streams), counters
// (clock, seq, recording cycles), thread metadata and the schedule
// position. What it cannot capture is the Go stack of each thread body —
// bodies are ordinary closures — so Restore rebuilds thread positions by
// feed replay: every thread re-executes its body privately, and each VM
// operation method returns the outcome recorded for it in the trace prefix
// (Thread.fed) before it builds a request — no scheduling, no event, no
// shared-state effect, no stored result. Determinism guarantees the body's
// locals end up exactly as they were; the shared state is then installed
// from the snapshot, and the machine resumes normal scheduling from the
// checkpoint as if it had executed the prefix. That no-request path is
// where checkpointed seek gets its speedup over scheduled replay.

// SlotSnap is a snapshotted value with its provenance.
type SlotSnap struct {
	Val   trace.Value
	Taint trace.Taint
}

// ThreadSnap is the snapshotted metadata of one thread. The body's local
// state is not part of the snapshot (it is reconstructed by feed replay);
// the pending fields describe the operation the thread was parked on, for
// debugger inspection and restore-time validation.
type ThreadSnap struct {
	Name   string
	Daemon bool
	Done   bool
	Taint  trace.Taint
	// PendingValid reports whether the pending fields are meaningful: they
	// are not for done threads, nor for the thread that emitted the
	// checkpoint event (it had not issued its next operation yet when the
	// snapshot was taken — it re-issues it deterministically on restore).
	PendingValid bool
	// PendingCode is the raw operation code (see OpName for rendering).
	PendingCode uint8
	// PendingObj is the operation's object, when it has one.
	PendingObj trace.ObjID
	// PendingDeadline is the absolute virtual-time deadline of a pending
	// sleep or receive-timeout. It must be restored rather than recomputed:
	// the thread issued the operation at an earlier clock than the
	// checkpoint's.
	PendingDeadline uint64
}

// ChanSnap is the snapshotted buffer of one channel, oldest value first.
type ChanSnap struct {
	Slots []SlotSnap
}

// DiskSnap is the snapshotted state of one simulated disk: its record log
// (oldest first, volatile tail included), the durability watermark and the
// lifetime fsync count. The fault plane is program structure, rebuilt by
// setup, and is not part of the snapshot.
type DiskSnap struct {
	Recs    []SlotSnap
	Durable int
	Fsyncs  int
}

// StreamSnap is the snapshotted state of one environment stream. Streams
// may be registered lazily during execution, so the snapshot records the
// name table: restore re-registers missing streams in snapshot order,
// keeping object IDs stable.
//
// Inputs and Outputs are read-only: a stream's histories are only ever
// appended to, so a snapshot holds a capacity-limited prefix of the live
// array (every snapshot of one run, and the machine itself, share it)
// instead of a copy — capture costs O(live state), not O(history). Restore
// shares them too: the restored machine appends after them into arrays of
// its own (see Machine.base).
type StreamSnap struct {
	Name    string
	InIndex int
	Inputs  []trace.Value
	Outputs []trace.Value
}

// Snapshot is a deterministic capture of machine state at an event
// boundary: after SchedPos scheduling decisions and Seq applied events.
// Snapshots are taken by checkpoint writers during recording (or by the
// debugger on a paused machine) and consumed by Restore.
type Snapshot struct {
	// Seq is the number of events applied when the snapshot was taken; the
	// first event a restored machine emits has this sequence number.
	Seq uint64
	// Clock is the virtual time at the snapshot.
	Clock uint64
	// RecordCycles is the recording work charged so far.
	RecordCycles uint64
	// SchedPos is the number of scheduling decisions consumed: the offset
	// into a recorded schedule stream at which a restored replay resumes.
	SchedPos uint64
	// Live and LiveNonDaemon are the machine's liveness counters.
	Live, LiveNonDaemon int

	Threads []ThreadSnap
	Cells   []SlotSnap
	// Mutexes holds each mutex's owner thread (-1 = free).
	Mutexes []trace.ThreadID
	Chans   []ChanSnap
	Streams []StreamSnap
	Disks   []DiskSnap
}

// NoRunningThread is the sentinel passed to Snapshot when no thread is
// mid-event — every live thread is parked with a valid pending operation
// (a paused machine).
const NoRunningThread trace.ThreadID = -1

// Snapshot captures the machine's current state. running identifies the
// thread that emitted the event being observed, whose pending operation is
// stale (it has not issued its next one yet); pass NoRunningThread on a
// paused machine, where every live thread is parked. Snapshot must only be
// called from an observer (between apply and resume) or while the machine
// is paused — never concurrently with running threads.
func (m *Machine) Snapshot(running trace.ThreadID) *Snapshot {
	m.joinHistories()
	m.shared = true
	s := &Snapshot{
		Seq:           m.seq,
		Clock:         m.clock,
		RecordCycles:  m.recordCycles,
		SchedPos:      m.seq,
		Live:          m.live,
		LiveNonDaemon: m.liveNonDaemon,
		Threads:       make([]ThreadSnap, len(m.threads)),
		Cells:         make([]SlotSnap, len(m.cells)),
		Mutexes:       make([]trace.ThreadID, len(m.mutexes)),
		Chans:         make([]ChanSnap, len(m.chans)),
		Streams:       make([]StreamSnap, len(m.streams)),
		Disks:         make([]DiskSnap, len(m.disks)),
	}
	for i, t := range m.threads {
		ts := ThreadSnap{Name: t.name, Daemon: t.daemon, Done: t.done, Taint: t.taint}
		if !t.done && t.id != running && t.pending.code != opNone {
			ts.PendingValid = true
			ts.PendingCode = uint8(t.pending.code)
			ts.PendingObj = t.pending.obj
			ts.PendingDeadline = t.pending.deadline
		}
		s.Threads[i] = ts
	}
	for i := range m.cells {
		s.Cells[i] = SlotSnap{Val: m.cells[i].slot.val, Taint: m.cells[i].slot.taint}
	}
	for i := range m.mutexes {
		s.Mutexes[i] = m.mutexes[i].owner
	}
	for i := range m.chans {
		c := &m.chans[i]
		var slots []SlotSnap
		for j := c.head; j < len(c.buf); j++ {
			slots = append(slots, SlotSnap{Val: c.buf[j].val, Taint: c.buf[j].taint})
		}
		s.Chans[i] = ChanSnap{Slots: slots}
	}
	for i := range m.streams {
		st := &m.streams[i]
		s.Streams[i] = StreamSnap{
			Name:    st.name,
			InIndex: st.inIndex,
			Inputs:  st.inputs[:len(st.inputs):len(st.inputs)],
			Outputs: st.outputs[:len(st.outputs):len(st.outputs)],
		}
	}
	for i := range m.disks {
		d := &m.disks[i]
		recs := make([]SlotSnap, len(d.recs))
		for j := range d.recs {
			recs[j] = SlotSnap{Val: d.recs[j].val, Taint: d.recs[j].taint}
		}
		s.Disks[i] = DiskSnap{Recs: recs, Durable: d.durable, Fsyncs: d.fsyncs}
	}
	return s
}

// EqualState compares the data-state portion of two snapshots — counters,
// cells, mutexes, channels, streams and thread liveness — and returns a
// descriptive error on the first difference. Thread pending operations are
// excluded: they legitimately differ between a snapshot taken mid-event
// and one taken on a paused machine (see Snapshot).
func (s *Snapshot) EqualState(o *Snapshot) error {
	switch {
	case s.Seq != o.Seq:
		return fmt.Errorf("seq %d != %d", s.Seq, o.Seq)
	case s.Clock != o.Clock:
		return fmt.Errorf("clock %d != %d", s.Clock, o.Clock)
	case s.SchedPos != o.SchedPos:
		return fmt.Errorf("sched pos %d != %d", s.SchedPos, o.SchedPos)
	case s.Live != o.Live || s.LiveNonDaemon != o.LiveNonDaemon:
		return fmt.Errorf("liveness %d/%d != %d/%d", s.Live, s.LiveNonDaemon, o.Live, o.LiveNonDaemon)
	case len(s.Threads) != len(o.Threads):
		return fmt.Errorf("thread count %d != %d", len(s.Threads), len(o.Threads))
	case len(s.Cells) != len(o.Cells):
		return fmt.Errorf("cell count %d != %d", len(s.Cells), len(o.Cells))
	case len(s.Mutexes) != len(o.Mutexes):
		return fmt.Errorf("mutex count %d != %d", len(s.Mutexes), len(o.Mutexes))
	case len(s.Chans) != len(o.Chans):
		return fmt.Errorf("chan count %d != %d", len(s.Chans), len(o.Chans))
	case len(s.Disks) != len(o.Disks):
		return fmt.Errorf("disk count %d != %d", len(s.Disks), len(o.Disks))
	}
	// Stream tables may differ by trailing untouched streams: the thread
	// mid-event at capture time registers its next streams during feed
	// replay, slightly ahead of when the snapshot saw them. Extras must be
	// pristine.
	if len(s.Streams) != len(o.Streams) {
		longer := s.Streams
		if len(o.Streams) > len(longer) {
			longer = o.Streams
		}
		for i := min(len(s.Streams), len(o.Streams)); i < len(longer); i++ {
			ex := longer[i]
			if ex.InIndex != 0 || len(ex.Inputs) != 0 || len(ex.Outputs) != 0 {
				return fmt.Errorf("stream count %d != %d with non-pristine extra %q", len(s.Streams), len(o.Streams), ex.Name)
			}
		}
	}
	for i := range s.Threads {
		a, b := s.Threads[i], o.Threads[i]
		if a.Name != b.Name || a.Daemon != b.Daemon || a.Done != b.Done {
			return fmt.Errorf("thread %d metadata differs: %+v != %+v", i, a, b)
		}
		// Taint registers are only comparable between parked observations:
		// the thread that emitted a checkpoint's event mutates its
		// register (body ClearTaint/AddTaint) before parking again.
		if a.PendingValid && b.PendingValid && a.Taint != b.Taint {
			return fmt.Errorf("thread %d taint %v != %v", i, a.Taint, b.Taint)
		}
	}
	for i := range s.Cells {
		if !s.Cells[i].Val.Equal(o.Cells[i].Val) || s.Cells[i].Taint != o.Cells[i].Taint {
			return fmt.Errorf("cell %d: %v != %v", i, s.Cells[i], o.Cells[i])
		}
	}
	for i := range s.Mutexes {
		if s.Mutexes[i] != o.Mutexes[i] {
			return fmt.Errorf("mutex %d owner %d != %d", i, s.Mutexes[i], o.Mutexes[i])
		}
	}
	for i := range s.Chans {
		a, b := s.Chans[i].Slots, o.Chans[i].Slots
		if len(a) != len(b) {
			return fmt.Errorf("chan %d depth %d != %d", i, len(a), len(b))
		}
		for j := range a {
			if !a[j].Val.Equal(b[j].Val) || a[j].Taint != b[j].Taint {
				return fmt.Errorf("chan %d slot %d: %v != %v", i, j, a[j], b[j])
			}
		}
	}
	for i := range s.Disks {
		a, b := s.Disks[i], o.Disks[i]
		if a.Durable != b.Durable || a.Fsyncs != b.Fsyncs || len(a.Recs) != len(b.Recs) {
			return fmt.Errorf("disk %d state %d/%d/%d != %d/%d/%d",
				i, len(a.Recs), a.Durable, a.Fsyncs, len(b.Recs), b.Durable, b.Fsyncs)
		}
		for j := range a.Recs {
			if !a.Recs[j].Val.Equal(b.Recs[j].Val) || a.Recs[j].Taint != b.Recs[j].Taint {
				return fmt.Errorf("disk %d record %d: %v != %v", i, j, a.Recs[j], b.Recs[j])
			}
		}
	}
	for i := 0; i < min(len(s.Streams), len(o.Streams)); i++ {
		a, b := s.Streams[i], o.Streams[i]
		if a.Name != b.Name || a.InIndex != b.InIndex || !valuesEqual(a.Inputs, b.Inputs) || !valuesEqual(a.Outputs, b.Outputs) {
			return fmt.Errorf("stream %d (%s) state differs", i, a.Name)
		}
	}
	return nil
}

func valuesEqual(a, b []trace.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// ErrBadSnapshot reports a snapshot whose liveness counters or mutex owners
// contradict the threads Restore rebuilt from it, or whose stream cursor
// contradicts the stream's own history.
var ErrBadSnapshot = errors.New("vm: snapshot contradicts the restored threads")

// FeedEntry is the recorded outcome of one thread operation, used during
// restore: the value the operation returned and whether it succeeded (the
// try/timeout variants' second result). Kind is the event kind the
// operation produced, validated against the re-issued operation so a
// corrupted or mismatched feed surfaces as a restore error instead of a
// silently divergent execution. Taint is the provenance the operation
// added to the thread's taint register (the slot or stream taint of
// loads, receives and inputs) — feed replay ORs it in at the recorded
// program point, so the register interleaves correctly with the body's
// own ClearTaint/AddTaint calls. Val leads so that the three one-byte
// fields share its trailing word: 40 bytes, not 48.
type FeedEntry struct {
	Val   trace.Value
	Kind  trace.EventKind
	OK    bool
	Taint trace.Taint
}

// feedCompatible reports whether an operation issued during feed replay
// can have produced an event of the given kind: its own kind, or a yield
// for a try-variant. Feed replay never issues opNone or opPanic.
func feedCompatible(code opCode, kind trace.EventKind) bool {
	op := &opTable[code]
	return kind == op.kind || op.try && kind == trace.EvYield
}

// restoreSpawn binds a feed-replayed spawn to its pre-created thread
// record: the child's identity comes from the feed (id, the recorded child
// ID), its name, body and daemon flag from the spawning site. A binding the
// snapshot contradicts aborts the restore.
func (t *Thread) restoreSpawn(id int64, name string, body func(*Thread), daemon bool) trace.ThreadID {
	m := t.m
	if id < 0 || int(id) >= len(m.threads) {
		t.parkRestoreError(fmt.Sprintf("vm: restore: spawn of unknown thread %d", id))
	}
	child := m.threads[id]
	if child.name != name {
		t.parkRestoreError(fmt.Sprintf("vm: restore: spawn name %q, snapshot has %q", name, child.name))
	}
	child.body, child.daemon = body, daemon
	return trace.ThreadID(id)
}

// Restore reconstructs a machine mid-execution: setup builds the program
// on the fresh machine (object and site registration must be deterministic,
// exactly as for a normal run) and returns the main thread body; snap is
// the state to restore; feeds holds, per thread ID, the outcomes of the
// operations that thread had applied before the snapshot (see FeedEntry —
// typically derived from a recorded trace prefix by the checkpoint
// package).
//
// Each thread body is re-executed privately against its feed — one thread
// at a time, in ID order, with no scheduling and no shared-state effects —
// until it parks at its first post-checkpoint operation (or finishes, for
// threads the snapshot marks done). The shared state is then installed
// from the snapshot. The returned machine is paused at snap.Seq: drive it
// with Continue / Finish, configured with a scheduler positioned at
// snap.SchedPos.
//
// Restore validates as it goes — feed/operation kind mismatches, spawn
// identity mismatches, threads parking when the snapshot says they
// finished (or vice versa), structural differences between the built
// program and the snapshot, and liveness counters, mutex owners or stream
// cursors that contradict the rebuilt threads and histories
// (ErrBadSnapshot) all return errors, with the machine's coroutines
// released. A body's runtime.Goexit during feed replay ends the calling
// goroutine, which releases them on its way out.
func Restore(cfg Config, setup func(*Machine) func(*Thread), snap *Snapshot, feeds [][]FeedEntry) (*Machine, error) {
	m := New(cfg)
	// Size the tables for the program the snapshot holds before setup
	// builds it: their lengths are those of slices the snapshot already has.
	m.cells = make([]cellState, 0, len(snap.Cells))
	m.cellIDs = make(map[string]trace.ObjID, len(snap.Cells))
	m.mutexes = make([]mutexState, 0, len(snap.Mutexes))
	m.chans = make([]chanState, 0, len(snap.Chans))
	m.streams = make([]streamState, 0, len(snap.Streams))
	m.streamIDs = make(map[string]trace.ObjID, len(snap.Streams))
	m.threads = make([]*Thread, 0, len(snap.Threads))
	main := setup(m)
	if len(m.threads) != 0 {
		return nil, fmt.Errorf("vm: restore: setup started threads")
	}
	switch {
	case len(snap.Threads) == 0:
		return nil, fmt.Errorf("vm: restore: snapshot has no threads")
	case len(feeds) != len(snap.Threads):
		return nil, fmt.Errorf("vm: restore: %d feeds for %d threads", len(feeds), len(snap.Threads))
	case len(m.cells) != len(snap.Cells):
		return nil, fmt.Errorf("vm: restore: program has %d cells, snapshot %d", len(m.cells), len(snap.Cells))
	case len(m.mutexes) != len(snap.Mutexes):
		return nil, fmt.Errorf("vm: restore: program has %d mutexes, snapshot %d", len(m.mutexes), len(snap.Mutexes))
	case len(m.chans) != len(snap.Chans):
		return nil, fmt.Errorf("vm: restore: program has %d chans, snapshot %d", len(m.chans), len(snap.Chans))
	case len(m.disks) != len(snap.Disks):
		return nil, fmt.Errorf("vm: restore: program has %d disks, snapshot %d", len(m.disks), len(snap.Disks))
	case len(m.streams) > len(snap.Streams):
		// Streams may be registered lazily during execution, so the built
		// program can know fewer than the snapshot — never more.
		return nil, fmt.Errorf("vm: restore: program has %d streams, snapshot %d", len(m.streams), len(snap.Streams))
	}
	// Bring the stream table up to the snapshot's, in snapshot order, so
	// lazily registered streams keep their object IDs: streams the bodies
	// register during feed replay resolve to these slots, and any stream
	// registered beyond them (by the thread that was mid-event at capture
	// time, whose post-event code runs during feed replay) lands after —
	// exactly where the original run would have put it.
	for i, ss := range snap.Streams {
		if i < len(m.streams) {
			if m.streams[i].name != ss.Name {
				return nil, fmt.Errorf("vm: restore: stream %d is %q, snapshot has %q", i, m.streams[i].name, ss.Name)
			}
			continue
		}
		m.Stream(ss.Name)
	}

	// Pre-create every thread record the snapshot knows about. IDs are
	// dense and spawner IDs are strictly smaller than their children's, so
	// replaying feeds in ID order guarantees each body has been bound (by
	// its parent's spawn) before its turn.
	for i := range snap.Threads {
		m.threads = append(m.threads, &Thread{m: m, id: trace.ThreadID(i), name: snap.Threads[i].Name})
	}
	m.threads[0].body = main
	m.running = true

	// parked collects live threads as they reach their first
	// post-checkpoint operation, so a failed restore — or a body's
	// runtime.Goexit unwinding the caller through here — releases exactly
	// the coroutines that exist.
	parked := make([]*Thread, 0, len(m.threads))
	defer func() {
		for _, t := range parked {
			m.stopped, t.done = true, true
			m.switchTo(t)
		}
	}()

	for i := range snap.Threads {
		ts := &snap.Threads[i]
		t := m.threads[i]
		if t.body == nil {
			return nil, fmt.Errorf("vm: restore: thread %d (%s) was never spawned during feed replay", i, ts.Name)
		}
		t.feed = feeds[i]
		live := m.launch(t)
		t.feed = nil // the restored machine keeps no feed: from here on t is live
		if live {
			parked = append(parked, t)
			if t.pending.code == opPanic {
				return nil, fmt.Errorf("vm: restore: thread %d (%s): %s", i, ts.Name, t.pending.msg)
			}
			if ts.Done {
				return nil, fmt.Errorf("vm: restore: thread %d (%s) parked but snapshot marks it done", i, ts.Name)
			}
			if t.feedPos != len(feeds[i]) {
				return nil, fmt.Errorf("vm: restore: thread %d (%s) parked after %d of %d feed entries", i, ts.Name, t.feedPos, len(feeds[i]))
			}
			if ts.PendingValid {
				if opCode(ts.PendingCode) != t.pending.code || ts.PendingObj != t.pending.obj {
					return nil, fmt.Errorf("vm: restore: thread %d (%s) parked at op %d obj %d, snapshot has op %d obj %d",
						i, ts.Name, t.pending.code, t.pending.obj, ts.PendingCode, ts.PendingObj)
				}
				t.pending.deadline = ts.PendingDeadline
			}
			m.live++
			if !t.daemon {
				m.liveNonDaemon++
			}
		} else {
			if !ts.Done {
				return nil, fmt.Errorf("vm: restore: thread %d (%s) finished but snapshot marks it live", i, ts.Name)
			}
			if t.feedPos != len(feeds[i]) {
				return nil, fmt.Errorf("vm: restore: thread %d (%s) finished after %d of %d feed entries", i, ts.Name, t.feedPos, len(feeds[i]))
			}
			t.done = true
		}
		// The taint register is not installed from the snapshot: feed
		// replay reproduces it exactly (entry taints interleaved with the
		// body's own ClearTaint/AddTaint calls), including body code that
		// ran after the snapshot event but before the thread's next
		// operation — which the snapshot cannot see.
	}

	// The rebuilt threads say who is live and who exists; a snapshot that
	// disagrees would end the replay early, keep it waiting for threads that
	// do not exist (a deadlock the recording never had) or disable a mutex.
	if m.live != snap.Live || m.liveNonDaemon != snap.LiveNonDaemon {
		return nil, fmt.Errorf("%w: %d threads live (%d non-daemon), snapshot counts %d (%d)",
			ErrBadSnapshot, m.live, m.liveNonDaemon, snap.Live, snap.LiveNonDaemon)
	}

	// Feed replay left shared state untouched; install it from the
	// snapshot.
	for i := range m.cells {
		m.cells[i].slot = slot{val: snap.Cells[i].Val, taint: snap.Cells[i].Taint}
	}
	for i, owner := range snap.Mutexes {
		if owner < -1 || int(owner) >= len(m.threads) {
			return nil, fmt.Errorf("%w: mutex %d owned by thread %d of %d", ErrBadSnapshot, i, owner, len(m.threads))
		}
		m.mutexes[i].owner = owner
	}
	for i := range m.chans {
		c := &m.chans[i]
		c.buf = c.buf[:0]
		c.head = 0
		for _, sl := range snap.Chans[i].Slots {
			c.push(slot{val: sl.Val, taint: sl.Taint})
		}
	}
	for i := range snap.Streams {
		// Streams past the snapshot (registered during feed replay by the
		// mid-event thread) stay pristine, as they were in the original.
		st := &m.streams[i]
		ss := &snap.Streams[i]
		if ss.InIndex != len(ss.Inputs) {
			return nil, fmt.Errorf("%w: stream %d (%s) has consumed %d inputs, its cursor says %d",
				ErrBadSnapshot, i, ss.Name, len(ss.Inputs), ss.InIndex)
		}
		st.inIndex = ss.InIndex
	}
	m.base = snap.Streams[:len(snap.Streams):len(snap.Streams)]
	m.shared = true
	for i := range m.disks {
		d := &m.disks[i]
		ds := &snap.Disks[i]
		d.recs = d.recs[:0]
		for _, sl := range ds.Recs {
			d.recs = append(d.recs, slot{val: sl.Val, taint: sl.Taint})
		}
		d.durable = ds.Durable
		d.fsyncs = ds.Fsyncs
	}
	m.clock = snap.Clock
	m.seq = snap.Seq
	m.recordCycles = snap.RecordCycles
	for _, t := range m.threads {
		m.park(t)
	}
	parked = nil // restored: nothing for the deferred release to end
	return m, nil
}

// AdoptCounters sets a paused machine's virtual clock and recording-cycle
// count to the snapshot's. A replay that runs through a boundary holds the
// boundary's logical state but not its bookkeeping — it charges no
// recording cost, and relaxed time gates let its clock fall behind across
// sleep gaps — so adopting the counters makes it emit the event times, and
// finish with the cycle counts, of a machine restored from that boundary.
// It fails when the machine is not paused exactly at the snapshot.
func (m *Machine) AdoptCounters(snap *Snapshot) error {
	if m.seq != snap.Seq {
		return fmt.Errorf("vm: machine at event %d cannot adopt the counters of a snapshot at %d", m.seq, snap.Seq)
	}
	m.clock = snap.Clock
	m.recordCycles = snap.RecordCycles
	for _, t := range m.threads {
		m.reevaluate(t) // time gates read the clock
	}
	return nil
}

// OpName renders a ThreadSnap.PendingCode as the operation's lower-case
// name.
func OpName(code uint8) string {
	if int(code) < len(opTable) {
		return opTable[code].name
	}
	return fmt.Sprintf("op(%d)", code)
}

// ThreadInfo describes one thread of a paused machine for debugger
// inspection.
type ThreadInfo struct {
	ID     trace.ThreadID
	Name   string
	Daemon bool
	Done   bool
	// Status renders what the thread is doing: "done", or its pending
	// operation with the object's registered name.
	Status string
}

// Threads describes every thread for inspection. Meaningful on a paused
// (or finished) machine.
func (m *Machine) Threads() []ThreadInfo {
	out := make([]ThreadInfo, len(m.threads))
	for i, t := range m.threads {
		ti := ThreadInfo{ID: t.id, Name: t.name, Daemon: t.daemon, Done: t.done}
		switch {
		case t.done:
			ti.Status = "done"
		default:
			ti.Status = m.describePending(t)
		}
		out[i] = ti
	}
	return out
}

// describePending renders a parked thread's pending operation.
func (m *Machine) describePending(t *Thread) string {
	req := &t.pending
	obj := ""
	//lint:exhaustive-default ops without a named object render with an empty operand; description only
	switch req.code {
	case opLoad, opStore:
		obj = m.CellName(req.obj)
	case opLock, opUnlock:
		obj = m.MutexName(req.obj)
	case opSend, opRecv, opTrySend, opTryRecv, opRecvTimeout:
		obj = m.ChanName(req.obj)
	case opInput, opOutput:
		obj = m.StreamName(req.obj)
	case opDiskWrite, opDiskRead, opDiskFsync, opDiskBarrier, opDiskCrash:
		obj = m.DiskName(req.obj)
	}
	if obj == "" {
		return OpName(uint8(req.code))
	}
	return OpName(uint8(req.code)) + " " + obj
}

// NumCells returns how many cells the program registered.
func (m *Machine) NumCells() int { return len(m.cells) }

// NumMutexes returns how many mutexes the program registered.
func (m *Machine) NumMutexes() int { return len(m.mutexes) }

// NumChans returns how many channels the program registered.
func (m *Machine) NumChans() int { return len(m.chans) }

// MutexOwner returns the owning thread of a mutex (-1 when free or
// unknown).
func (m *Machine) MutexOwner(id trace.ObjID) trace.ThreadID {
	if int(id) < len(m.mutexes) {
		return m.mutexes[id].owner
	}
	return -1
}

// ChanValues returns the buffered values of a channel, oldest first.
func (m *Machine) ChanValues(id trace.ObjID) []trace.Value {
	if int(id) >= len(m.chans) {
		return nil
	}
	c := &m.chans[id]
	out := make([]trace.Value, 0, c.size())
	for j := c.head; j < len(c.buf); j++ {
		out = append(out, c.buf[j].val)
	}
	return out
}
