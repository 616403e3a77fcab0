package flightrec

import (
	"path/filepath"
	"sync"
	"testing"

	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// TestRehydratedSnapshotsShareHistories: every boundary snapshot a store
// hands out equals, in state, the snapshot the recorder captured there
// before it dropped the stream histories (a checkpointed monolithic
// recording of the same run has them), and the histories the store gives
// back are capacity-limited prefixes of one array per stream, not copies.
// Segments are loaded from several goroutines at once; run under -race.
func TestRehydratedSnapshotsShareHistories(t *testing.T) {
	s, err := workload.ByName("dynokv-staleread")
	if err != nil {
		t.Fatal(err)
	}
	const interval = 256
	rec := recordCheckpointed(t, s, interval)
	res, err := Record(s, s.DefaultSeed, nil, Options{Interval: interval, SpillDir: filepath.Join(t.TempDir(), "spill")})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Store
	seqs := st.SnapshotSeqs()
	if len(seqs) < 4 {
		t.Fatalf("only %d boundary snapshots", len(seqs))
	}

	snaps := make([]*vm.Snapshot, len(seqs))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range seqs {
				i = (i + g*len(seqs)/4) % len(seqs)
				snap, err := st.BestSnapshot(seqs[i])
				if err != nil {
					t.Errorf("snapshot at %d: %v", seqs[i], err)
					return
				}
				if g == 0 {
					snaps[i] = snap
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	originals := make(map[uint64]*vm.Snapshot)
	for _, cp := range rec.Checkpoints {
		originals[cp.Seq] = cp
	}
	for i, snap := range snaps {
		orig := originals[seqs[i]]
		if orig == nil {
			t.Fatalf("the monolithic recording has no checkpoint at %d", seqs[i])
		}
		if err := snap.EqualState(orig); err != nil {
			t.Fatalf("snapshot at %d differs from the recorder's: %v", seqs[i], err)
		}
	}

	shared := 0
	last := snaps[len(snaps)-1]
	for _, snap := range snaps[:len(snaps)-1] {
		for k := range snap.Streams {
			for _, h := range [][2][]trace.Value{
				{snap.Streams[k].Inputs, last.Streams[k].Inputs},
				{snap.Streams[k].Outputs, last.Streams[k].Outputs},
			} {
				early, late := h[0], h[1]
				if cap(early) != len(early) {
					t.Fatalf("snapshot at %d stream %d: history has spare capacity (%d of %d)", snap.Seq, k, len(early), cap(early))
				}
				if len(early) == 0 {
					continue
				}
				if &early[0] != &late[0] {
					t.Fatalf("snapshot at %d stream %d: history is a copy, not a prefix of the store's", snap.Seq, k)
				}
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no snapshot carries a stream history: nothing was compared")
	}
}
