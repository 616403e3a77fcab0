// Package race implements a happens-before data-race detector over VM
// event streams.
//
// The detector maintains vector clocks per thread, per mutex and per
// channel message, and checks every pair of conflicting memory accesses
// (same cell, at least one store) for concurrency. It runs in two roles:
//
//   - offline, over a recorded oracle trace, to enumerate the racy pairs an
//     execution actually contained (used when enumerating potential root
//     causes and when measuring debugging fidelity), and
//   - online, attached to a machine as an Observer with optional access
//     sampling: the paper's §3.1.3 "potential-bug detector". The RCSE
//     recorder does not arm it as a trigger, because no firing changed a
//     replay (DESIGN.md §2).
//
// The online mode models DataCollider-style low-overhead detection [10]:
// synchronization is always tracked (cheap), while memory-access checking
// is sampled at a configurable rate, trading detection probability for
// runtime cost.
package race

import (
	"fmt"
	"sort"

	"debugdet/internal/trace"
	"debugdet/internal/vclock"
)

// Race is one detected racy pair: two accesses to the same cell, not
// ordered by happens-before, at least one of which is a store.
type Race struct {
	Obj    trace.ObjID // the cell raced on
	First  trace.Event // earlier access in the observed order
	Second trace.Event // later access
}

// Key returns a stable identity for deduplication: races are reported once
// per (object, site pair) regardless of how many dynamic instances occur.
func (r Race) Key() string {
	a, b := r.First.Site, r.Second.Site
	if b < a {
		a, b = b, a
	}
	return fmt.Sprintf("%d:%d-%d", r.Obj, a, b)
}

// String renders the race for diagnostics.
func (r Race) String() string {
	return fmt.Sprintf("race on obj %d: %s/%s at seq %d vs %s/%s at seq %d",
		r.Obj, r.First.Kind, raceRole(r.First), r.First.Seq,
		r.Second.Kind, raceRole(r.Second), r.Second.Seq)
}

func raceRole(e trace.Event) string {
	if e.Kind == trace.EvStore {
		return "write"
	}
	return "read"
}

// Options configures a Detector.
type Options struct {
	// SampleRate samples memory-access checking: 1 checks every access
	// (full detection), k > 1 checks roughly one in k accesses,
	// deterministically by sequence number. Synchronization tracking is
	// never sampled. 0 means 1.
	SampleRate uint64
	// CheckCost is the virtual-cycle cost charged per checked access when
	// the detector runs online. Offline analysis passes 0.
	CheckCost uint64
	// OnRace, when set, is invoked once per deduplicated race as it is
	// discovered.
	OnRace func(Race)
}

type access struct {
	ev trace.Event
	vc vclock.VC
}

type cellHistory struct {
	lastWrite *access
	reads     []access // reads since the last write
}

// Detector is a happens-before race detector. It implements vm.Observer.
type Detector struct {
	opts Options

	threadVC map[trace.ThreadID]vclock.VC
	lockVC   map[trace.ObjID]vclock.VC
	chanVC   map[trace.ObjID][]vclock.VC // FIFO of pending send clocks
	spawnVC  map[trace.ThreadID]vclock.VC

	cells map[trace.ObjID]*cellHistory

	seen    map[string]bool
	races   []Race
	checked uint64
}

// NewDetector returns a detector with the given options.
func NewDetector(opts Options) *Detector {
	if opts.SampleRate == 0 {
		opts.SampleRate = 1
	}
	return &Detector{
		opts:     opts,
		threadVC: make(map[trace.ThreadID]vclock.VC),
		lockVC:   make(map[trace.ObjID]vclock.VC),
		chanVC:   make(map[trace.ObjID][]vclock.VC),
		spawnVC:  make(map[trace.ThreadID]vclock.VC),
		cells:    make(map[trace.ObjID]*cellHistory),
		seen:     make(map[string]bool),
	}
}

// Races returns the deduplicated races found so far, in discovery order.
func (d *Detector) Races() []Race { return d.races }

// Checked returns how many memory accesses were actually checked (after
// sampling), for overhead accounting.
func (d *Detector) Checked() uint64 { return d.checked }

// clock returns the thread's current clock, initializing from a pending
// spawn edge if this is the thread's first event.
func (d *Detector) clock(tid trace.ThreadID) vclock.VC {
	if vc, ok := d.threadVC[tid]; ok {
		return vc
	}
	var vc vclock.VC
	if parent, ok := d.spawnVC[tid]; ok {
		vc = parent.Clone()
		delete(d.spawnVC, tid)
	} else {
		vc = vclock.New(int(tid) + 1)
	}
	d.threadVC[tid] = vc
	return vc
}

// OnEvent implements vm.Observer. The returned cost models the online
// detector's runtime overhead; it is zero for pure synchronization events
// and for skipped (unsampled) accesses.
func (d *Detector) OnEvent(e *trace.Event) uint64 {
	if e.TID < 0 {
		return 0
	}
	tid := e.TID
	vc := d.clock(tid)
	var cost uint64

	//lint:exhaustive-default vector clocks advance only on sync and memory events; the remaining kinds are thread-local and cannot race
	switch e.Kind {
	case trace.EvLock:
		if rel, ok := d.lockVC[e.Obj]; ok {
			vc = vc.Join(rel)
		}
	case trace.EvUnlock:
		d.lockVC[e.Obj] = vc.Clone()
	case trace.EvSend:
		d.chanVC[e.Obj] = append(d.chanVC[e.Obj], vc.Clone())
	case trace.EvRecv:
		if q := d.chanVC[e.Obj]; len(q) > 0 {
			vc = vc.Join(q[0])
			d.chanVC[e.Obj] = q[1:]
		}
	case trace.EvSpawn:
		// Child's initial clock is the parent's at the spawn point.
		child := trace.ThreadID(e.Obj)
		d.spawnVC[child] = vc.Clone()
	case trace.EvLoad, trace.EvStore:
		if e.Seq%d.opts.SampleRate == 0 {
			d.checkAccess(e, vc)
			d.checked++
			cost = d.opts.CheckCost
		}
	}

	vc = vc.Tick(int(tid))
	d.threadVC[tid] = vc
	return cost
}

// checkAccess compares the access against the cell's history and records
// any races.
func (d *Detector) checkAccess(e *trace.Event, vc vclock.VC) {
	h := d.cells[e.Obj]
	if h == nil {
		h = &cellHistory{}
		d.cells[e.Obj] = h
	}
	cur := access{ev: *e, vc: vc.Clone()}

	if e.Kind == trace.EvStore {
		if h.lastWrite != nil && !h.lastWrite.vc.HappensBefore(vc) && h.lastWrite.ev.TID != e.TID {
			d.report(Race{Obj: e.Obj, First: h.lastWrite.ev, Second: *e})
		}
		for i := range h.reads {
			r := &h.reads[i]
			if r.ev.TID != e.TID && !r.vc.HappensBefore(vc) {
				d.report(Race{Obj: e.Obj, First: r.ev, Second: *e})
			}
		}
		h.lastWrite = &cur
		h.reads = h.reads[:0]
		return
	}
	// Load: races only with the last write.
	if h.lastWrite != nil && h.lastWrite.ev.TID != e.TID && !h.lastWrite.vc.HappensBefore(vc) {
		d.report(Race{Obj: e.Obj, First: h.lastWrite.ev, Second: *e})
	}
	h.reads = append(h.reads, cur)
}

func (d *Detector) report(r Race) {
	k := r.Key()
	if d.seen[k] {
		return
	}
	d.seen[k] = true
	d.races = append(d.races, r)
	if d.opts.OnRace != nil {
		d.opts.OnRace(r)
	}
}

// Analyze runs full (unsampled) detection over a recorded trace and returns
// the deduplicated races sorted by first occurrence.
func Analyze(l *trace.Log) []Race {
	d := NewDetector(Options{SampleRate: 1})
	for i := range l.Events {
		d.OnEvent(&l.Events[i])
	}
	rs := d.Races()
	sort.Slice(rs, func(i, j int) bool { return rs[i].Second.Seq < rs[j].Second.Seq })
	return rs
}
