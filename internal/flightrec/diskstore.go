package flightrec

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"debugdet/internal/checkpoint"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/wire"
)

// DiskStore is a spill directory opened for replay. The manifest is read
// eagerly; segment files lazily (and cached); the feed log on first
// demand, in one pass that drives checkpoint's feed and stream folds — the
// derivation a recording's restore inputs come from too — and keeps the
// schedule stream. The feed log's entries are read into one array, which
// the feed fold then sorts by thread in place; the schedule is the threads
// it sorts by. Every boundary snapshot's stream histories and every
// restore's feeds are prefixes of the folds' shared arrays, never copies.
// Opening a store therefore costs O(run) memory at debug time — a feed
// entry and a schedule entry per record, and the stream histories — and
// the bounded resource is the recorder's memory at record time, not the
// debugger's.
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
	plan    *checkpoint.FeedPlan
	streams *checkpoint.StreamFold
	sched   []trace.ThreadID
	inputs  map[string][]trace.Value // the streams' input histories, by name
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
// boundary snapshot's stream histories filled in and restore-ready.
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
		// The codec persists only the stream cursors; the histories are
		// prefixes of the store's, which every snapshot may alias (see
		// vm.StreamSnap).
		fd, err := ds.feedData()
		if err != nil {
			return nil, err
		}
		if err := fd.streams.Fill(seg.Snap); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, si.File, err)
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

// Feeds implements Store: slices of the feed fold's shared arrays.
func (ds *DiskStore) Feeds(snap *vm.Snapshot) ([][]vm.FeedEntry, error) {
	fd, err := ds.feedData()
	if err != nil {
		return nil, err
	}
	return fd.plan.At(snap)
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

// scanFeeds is the single feed-log pass: it drives checkpoint's feed and
// stream folds record by record and keeps the schedule. It reserves the
// entry and schedule arrays once, from the manifest's entry count — after
// holding that count against the bytes the feed log has, so a hostile
// manifest reserves nothing — and sizes nothing else by a number read from
// the file: thread and stream IDs are bounded by the threads spawned so
// far and the manifest's stream table before a record reaches a fold. The
// feed fold then carves the entries, in place, into every thread's feed,
// reading the schedule as their threads.
func (ds *DiskStore) scanFeeds() (*feedData, error) {
	f, err := os.Open(filepath.Join(ds.dir, feedLogName))
	if err != nil {
		return nil, fmt.Errorf("flightrec: feed log: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("flightrec: feed log: %w", err)
	}
	// The manifest's byte count is the log's committed prefix: a run that
	// stopped between two seals leaves entries past it, the last maybe torn.
	r := wire.NewReader(io.NewSectionReader(f, 0, min(ds.man.FeedBytes, fi.Size())), ErrCorrupt)
	// An entry is at least a thread varint and a kind byte.
	declared := r.Claim("feed entries declared by the manifest", ds.man.FeedCount, 2)
	if err := r.Err(); err != nil {
		return nil, err
	}
	// The fold indexes entries with int32s. Claim has held the count to
	// half the log's bytes, so only a feed log of 4 GiB or more gets here.
	if declared > checkpoint.MaxFeedRecords {
		return nil, fmt.Errorf("%w: manifest declares %d feed entries, a store holds at most %d",
			ErrCorrupt, declared, checkpoint.MaxFeedRecords)
	}
	names, bounds := ds.man.Meta.Streams, ds.SnapshotSeqs()
	fd := &feedData{
		plan:    checkpoint.NewFeedPlan(bounds),
		streams: checkpoint.NewStreamFold(len(names), bounds),
		sched:   make([]trace.ThreadID, 0, declared),
	}
	entries := make([]vm.FeedEntry, 0, declared) // in event order, until carved
	spawned := 0
	count, err := readFeedLog(r, func(i uint64, fe *feedEntry) error {
		// Thread IDs are dense in spawn order: thread t runs only after
		// t spawns.
		if tid := int(fe.TID); tid < 0 || tid > spawned {
			return fmt.Errorf("%w: feed entry %d has thread %d, %d spawned so far", ErrCorrupt, i, tid, spawned)
		}
		if (fe.Kind == trace.EvInput || fe.Kind == trace.EvOutput) && uint64(fe.Obj) >= uint64(len(names)) {
			return fmt.Errorf("%w: feed entry %d names stream %d, manifest has %d streams", ErrCorrupt, i, fe.Obj, len(names))
		}
		if fe.Kind == trace.EvSpawn {
			spawned++
		}
		fd.plan.Count(fe.TID)
		fd.streams.Add(fe.Kind, fe.Obj, &fe.Val)
		entries = append(entries, checkpoint.FeedEntryOf(fe.Kind, fe.Obj, fe.Val, fe.Taint))
		fd.sched = append(fd.sched, fe.TID)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if count != ds.man.FeedCount {
		return nil, fmt.Errorf("%w: feed log has %d entries, manifest declares %d", ErrCorrupt, count, ds.man.FeedCount)
	}
	fd.plan.Carve(entries, fd.sched)
	fd.inputs = fd.streams.Inputs(names)
	return fd, nil
}
