package flightrec

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/wire"
)

// DiskStore is a spill directory opened for replay. The manifest is read
// eagerly; segment files lazily (and cached); the feed log on first
// demand, in one pass that derives everything vm.Restore and the replay
// configuration need: the full per-thread feeds, the schedule stream, each
// stream's input and output history, and — per retained boundary — how
// much of each of those precedes it. Every boundary snapshot's stream
// histories and every restore's feeds are prefixes of those shared arrays,
// never copies. Opening a store therefore costs O(run) memory at debug
// time — the bounded resource is the recorder's memory at record time, not
// the debugger's.
//
// A DiskStore is safe for concurrent readers.
type DiskStore struct {
	dir string
	man *manifest

	mu   sync.Mutex
	segs map[int]*Segment // by position in man.Segments

	feedOnce sync.Once
	feedErr  error
	feeds    *feedData
}

// feedData is everything one scan of the feed log yields. All of it is
// read-only once built.
type feedData struct {
	perThread [][]vm.FeedEntry // per thread, carved out of one array
	sched     []trace.ThreadID
	streams   []streamHist             // by stream ID
	inputs    map[string][]trace.Value // the streams' input histories, by name
	bounds    map[uint64]*prefixCounts // by boundary seq
}

// streamHist is one stream's whole input and output history, in event
// order.
type streamHist struct {
	in, out []trace.Value
}

// prefixCounts says how much of the run precedes one boundary: entries of
// each thread's feed, and values of each stream's histories.
type prefixCounts struct {
	feeds   []int // by thread
	in, out []int // by stream
}

// Open reads the manifest of a spill directory and returns the store.
func Open(dir string) (*DiskStore, error) {
	f, err := os.Open(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("flightrec: open store: %w", err)
	}
	defer f.Close()
	man, err := decodeManifest(f)
	if err != nil {
		return nil, fmt.Errorf("flightrec: %s: %w", manifestName, err)
	}
	for i := 1; i < len(man.Segments); i++ {
		if man.Segments[i].From != man.Segments[i-1].To {
			return nil, fmt.Errorf("%w: segments not contiguous at %d ([..., %d) then [%d, ...))",
				ErrCorrupt, i, man.Segments[i-1].To, man.Segments[i].From)
		}
	}
	if n := len(man.Segments); man.Finalized && n > 0 && man.Segments[n-1].To != man.Meta.EventCount {
		return nil, fmt.Errorf("%w: last segment ends at %d, run has %d events",
			ErrCorrupt, man.Segments[n-1].To, man.Meta.EventCount)
	}
	return &DiskStore{dir: dir, man: man, segs: make(map[int]*Segment)}, nil
}

// Dir returns the spill directory path.
func (ds *DiskStore) Dir() string { return ds.dir }

// Finalized reports whether the run finished and stamped its terminal
// condition (an unfinalized manifest is a crash artifact: readable, but
// Failed/FailureSig are not authoritative).
func (ds *DiskStore) Finalized() bool { return ds.man.Finalized }

// FeedCount returns the number of feed-log entries the manifest declares.
func (ds *DiskStore) FeedCount() uint64 { return ds.man.FeedCount }

// FeedBytes returns the feed log's size per the manifest.
func (ds *DiskStore) FeedBytes() int64 { return ds.man.FeedBytes }

// Meta implements Store.
func (ds *DiskStore) Meta() Meta { return ds.man.Meta }

// Segments implements Store.
func (ds *DiskStore) Segments() []SegmentInfo {
	return append([]SegmentInfo(nil), ds.man.Segments...)
}

// Events implements Store.
func (ds *DiskStore) Events(i int) ([]trace.Event, error) {
	seg, err := ds.segment(i)
	if err != nil {
		return nil, err
	}
	return seg.Events, nil
}

// segment loads (or returns the cached) segment at position i, with its
// boundary snapshot rehydrated and restore-ready.
func (ds *DiskStore) segment(i int) (*Segment, error) {
	if i < 0 || i >= len(ds.man.Segments) {
		return nil, fmt.Errorf("flightrec: segment %d of %d", i, len(ds.man.Segments))
	}
	ds.mu.Lock()
	if seg, ok := ds.segs[i]; ok {
		ds.mu.Unlock()
		return seg, nil
	}
	ds.mu.Unlock()
	si := ds.man.Segments[i]
	f, err := os.Open(filepath.Join(ds.dir, si.File))
	if err != nil {
		return nil, fmt.Errorf("flightrec: open segment: %w", err)
	}
	seg, err := DecodeSegment(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("flightrec: %s: %w", si.File, err)
	}
	if seg.From != si.From || seg.To != si.To || seg.Index != si.Index {
		return nil, fmt.Errorf("%w: %s holds segment %d [%d, %d), manifest says %d [%d, %d)",
			ErrCorrupt, si.File, seg.Index, seg.From, seg.To, si.Index, si.From, si.To)
	}
	seg.Bytes, seg.File = si.Bytes, si.File
	if seg.Snap != nil {
		if err := ds.rehydrate(seg.Snap); err != nil {
			return nil, err
		}
	}
	ds.mu.Lock()
	if cached, ok := ds.segs[i]; ok {
		seg = cached // another reader won the race; share its copy
	} else {
		ds.segs[i] = seg
	}
	ds.mu.Unlock()
	return seg, nil
}

// rehydrate gives a boundary snapshot its per-stream histories (the codec
// persists only the cursor): capacity-limited prefixes of the store's
// shared histories, which the snapshot's read-only contract (see
// vm.StreamSnap) lets every snapshot of the store alias.
func (ds *DiskStore) rehydrate(snap *vm.Snapshot) error {
	fd, err := ds.feedData()
	if err != nil {
		return err
	}
	pc := fd.bounds[snap.Seq]
	if pc == nil {
		pc = &prefixCounts{} // nothing precedes a snapshot at 0
	}
	for id := len(snap.Streams); id < len(pc.in); id++ {
		if pc.in[id] > 0 || pc.out[id] > 0 {
			return fmt.Errorf("%w: stream %d in feed log, snapshot at %d has %d streams",
				ErrCorrupt, id, snap.Seq, len(snap.Streams))
		}
	}
	for i := range snap.Streams {
		st := &snap.Streams[i]
		if i < len(pc.in) {
			h := &fd.streams[i]
			st.Inputs = h.in[:pc.in[i]:pc.in[i]]
			st.Outputs = h.out[:pc.out[i]:pc.out[i]]
		}
		if len(st.Inputs) != st.InIndex {
			return fmt.Errorf("%w: snapshot at %d stream %q rebuilt %d inputs, cursor is %d",
				ErrCorrupt, snap.Seq, st.Name, len(st.Inputs), st.InIndex)
		}
	}
	return nil
}

// BestSnapshot implements Store: the latest retained boundary snapshot
// with Seq ≤ target.
func (ds *DiskStore) BestSnapshot(target uint64) (*vm.Snapshot, error) {
	best := -1
	for i, si := range ds.man.Segments {
		if si.From > 0 && si.From <= target {
			best = i
		}
	}
	if best < 0 {
		return nil, nil
	}
	seg, err := ds.segment(best)
	if err != nil {
		return nil, err
	}
	if seg.Snap == nil {
		return nil, fmt.Errorf("%w: segment [%d, %d) has no boundary snapshot", ErrCorrupt, seg.From, seg.To)
	}
	return seg.Snap, nil
}

// SnapshotSeqs implements Store.
func (ds *DiskStore) SnapshotSeqs() []uint64 {
	var seqs []uint64
	for _, si := range ds.man.Segments {
		if si.From > 0 {
			seqs = append(seqs, si.From)
		}
	}
	return seqs
}

// Feeds implements Store: slices of the shared full-feed arrays, using
// the per-boundary counts precomputed during the feed-log scan (with an
// O(seq) recount as fallback for seqs that are not segment boundaries).
func (ds *DiskStore) Feeds(snap *vm.Snapshot) ([][]vm.FeedEntry, error) {
	fd, err := ds.feedData()
	if err != nil {
		return nil, err
	}
	var counts []int
	if pc := fd.bounds[snap.Seq]; pc != nil {
		counts = pc.feeds
	} else {
		if snap.Seq > uint64(len(fd.sched)) {
			return nil, fmt.Errorf("flightrec: feeds need %d events, log has %d", snap.Seq, len(fd.sched))
		}
		counts = make([]int, len(fd.perThread))
		for _, tid := range fd.sched[:snap.Seq] {
			counts[tid]++
		}
	}
	feeds := make([][]vm.FeedEntry, len(snap.Threads))
	for tid := range feeds {
		if tid < len(counts) && tid < len(fd.perThread) {
			feeds[tid] = fd.perThread[tid][:counts[tid]]
		}
	}
	return feeds, nil
}

// Sched is SchedFrom. bench/ compiles against this; ROADMAP item 1 deletes
// it.
func (ds *DiskStore) Sched(from uint64) ([]trace.ThreadID, error) { return ds.SchedFrom(from) }

// SchedFrom implements Store.
func (ds *DiskStore) SchedFrom(from uint64) ([]trace.ThreadID, error) {
	fd, err := ds.feedData()
	if err != nil {
		return nil, err
	}
	if from >= uint64(len(fd.sched)) {
		return nil, nil
	}
	return fd.sched[from:], nil
}

// Inputs implements Store.
func (ds *DiskStore) Inputs() (vm.InputSource, error) {
	fd, err := ds.feedData()
	if err != nil {
		return nil, err
	}
	return &vm.MapInputs{Values: fd.inputs, Base: vm.ZeroInputs}, nil
}

// feedData scans the feed log once and caches the result.
func (ds *DiskStore) feedData() (*feedData, error) {
	ds.feedOnce.Do(func() {
		ds.feeds, ds.feedErr = ds.scanFeeds()
	})
	return ds.feeds, ds.feedErr
}

// scanFeeds is the single feed-log pass. It reserves the entry and
// schedule arrays once, from the manifest's entry count — after holding
// that count against the bytes the feed log has, so a hostile manifest
// reserves nothing — and sizes nothing else by a number read from the
// file: thread and stream IDs are bounded by the threads spawned so far
// and the manifest's stream table before they index anything.
func (ds *DiskStore) scanFeeds() (*feedData, error) {
	f, err := os.Open(filepath.Join(ds.dir, feedLogName))
	if err != nil {
		return nil, fmt.Errorf("flightrec: feed log: %w", err)
	}
	defer f.Close()
	r := wire.NewReader(f, ErrCorrupt)
	// An entry is at least a thread varint and a kind byte.
	declared := r.Claim("feed entries declared by the manifest", ds.man.FeedCount, 2)
	if err := r.Err(); err != nil {
		return nil, err
	}
	names := ds.man.Meta.Streams
	fd := &feedData{
		sched:   make([]trace.ThreadID, 0, declared),
		streams: make([]streamHist, len(names)),
		inputs:  make(map[string][]trace.Value),
		bounds:  make(map[uint64]*prefixCounts),
	}
	entries := make([]vm.FeedEntry, 0, declared) // in event order
	perTID := []int{}                            // entries per thread so far
	spawned := 0
	bounds := ds.SnapshotSeqs()
	mark := func(seq uint64) {
		for ; len(bounds) > 0 && bounds[0] == seq; bounds = bounds[1:] {
			pc := &prefixCounts{
				feeds: append([]int(nil), perTID...),
				in:    make([]int, len(names)),
				out:   make([]int, len(names)),
			}
			for id := range fd.streams {
				pc.in[id], pc.out[id] = len(fd.streams[id].in), len(fd.streams[id].out)
			}
			fd.bounds[seq] = pc
		}
	}
	count, err := readFeedLog(r, func(i uint64, fe *feedEntry) error {
		mark(i)
		tid := int(fe.TID)
		if tid < 0 {
			return fmt.Errorf("%w: feed entry %d has thread %d", ErrCorrupt, i, tid)
		}
		// Thread IDs are dense in spawn order: thread t runs only after
		// t spawns.
		if tid > spawned {
			return fmt.Errorf("%w: feed entry %d has thread %d, %d spawned so far", ErrCorrupt, i, tid, spawned)
		}
		for tid >= len(perTID) {
			perTID = append(perTID, 0)
		}
		perTID[tid]++
		entries = append(entries, fe.feed())
		fd.sched = append(fd.sched, fe.TID)
		//lint:exhaustive-default only spawns and stream events are tallied here; other kinds are feed-and-schedule-only
		switch fe.Kind {
		case trace.EvSpawn:
			spawned++
		case trace.EvInput:
			if uint64(fe.Obj) >= uint64(len(names)) {
				return fmt.Errorf("%w: feed entry %d reads stream %d, manifest has %d streams", ErrCorrupt, i, fe.Obj, len(names))
			}
			fd.streams[fe.Obj].in = append(fd.streams[fe.Obj].in, fe.Val)
		case trace.EvOutput:
			if uint64(fe.Obj) >= uint64(len(names)) {
				return fmt.Errorf("%w: feed entry %d writes stream %d, manifest has %d streams", ErrCorrupt, i, fe.Obj, len(names))
			}
			fd.streams[fe.Obj].out = append(fd.streams[fe.Obj].out, fe.Val)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	mark(count)
	if count != ds.man.FeedCount {
		return nil, fmt.Errorf("%w: feed log has %d entries, manifest declares %d", ErrCorrupt, count, ds.man.FeedCount)
	}
	for id, name := range names {
		if in := fd.streams[id].in; len(in) > 0 {
			fd.inputs[name] = in
		}
	}
	// Deal the entries out to their threads: one array, each thread's feed
	// a capacity-limited run of it.
	carved := make([]vm.FeedEntry, len(entries))
	fd.perThread = make([][]vm.FeedEntry, len(perTID))
	off := 0
	for tid, n := range perTID {
		fd.perThread[tid] = carved[off : off : off+n]
		off += n
	}
	for i, tid := range fd.sched {
		fd.perThread[tid] = append(fd.perThread[tid], entries[i])
	}
	return fd, nil
}
