package flightrec_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"debugdet/internal/flightrec"
	"debugdet/internal/scenario"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// feedFixture flight-records dynokv-staleread at 40 rounds (27 949 feed
// entries) into dir with a boundary every 1024 events, and returns the
// latest boundary snapshot and the feed entry count.
func feedFixture(tb testing.TB, dir string) (*vm.Snapshot, uint64) {
	tb.Helper()
	s, err := workload.ByName("dynokv-staleread")
	if err != nil {
		tb.Fatal(err)
	}
	res, err := flightrec.Record(s, s.DefaultSeed, scenario.Params{"rounds": 40},
		flightrec.Options{Interval: 1024, RingSegments: 2, SpillDir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	seqs := res.Store.SnapshotSeqs()
	snap, err := res.Store.BestSnapshot(seqs[len(seqs)-1])
	if err != nil {
		tb.Fatal(err)
	}
	return snap, res.Store.FeedCount()
}

// openFeeds reopens the store at dir and takes the feeds for restoring
// snap: the feed-log scan and both folds, and nothing of a segment.
func openFeeds(tb testing.TB, dir string, snap *vm.Snapshot) {
	tb.Helper()
	st, err := flightrec.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := st.Feeds(snap); err != nil {
		tb.Fatal(err)
	}
}

// TestOpenStoreFeedsAllocation pins what reopening a spill directory and
// taking its feeds allocates per feed-log entry, on feedFixture (27 949
// entries) averaged over 8 reopenings. The feed fold sorts its one
// event-order array of 40-byte entries in place; with the schedule, the
// carve's index, the stream fold and the decoded values that reads
// 73.7 B/entry. Copying the entries into a second, per-thread array, as
// the fold once did with 48-byte entries, read 125.5 B/entry. The bound,
// 90 B/entry, sits between the two.
func TestOpenStoreFeedsAllocation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	snap, entries := feedFixture(t, dir)
	const runs = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		openFeeds(t, dir, snap)
	}
	runtime.ReadMemStats(&after)
	perEntry := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(entries)
	t.Logf("%d feed entries: %.1f B/entry", entries, perEntry)
	if perEntry > 90 {
		t.Fatalf("reopening a store and taking its feeds allocated %.1f B per feed entry, want at most 90", perEntry)
	}
}

// BenchmarkOpenStoreFeeds times reopening feedFixture's spill directory and
// taking its feeds: the feed-log scan, the stream fold and the feed fold's
// carve, reported per feed-log record.
func BenchmarkOpenStoreFeeds(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "spill")
	snap, entries := feedFixture(b, dir)
	records := float64(entries)
	var before, after runtime.MemStats
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for range b.N {
		openFeeds(b, dir, snap)
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/records, "ns/record")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N)/records, "B/record")
}
