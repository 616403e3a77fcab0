package flightrec_test

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"debugdet/internal/flightrec"
	"debugdet/internal/replay"
	"debugdet/internal/trace"
	"debugdet/internal/workload"
)

// TestHostileFeedLog: a feed log or manifest that names a stream, a thread
// or an entry count the run cannot have had is reported as corrupt by the
// first seek that needs the feed log — no panic, and nothing reserved on
// the file's word: under 1 MB allocated by the whole failed seek. (Before
// the checks, a stream ID ≥ 2^63 went negative through int() and panicked
// at the index, and a 10-byte log naming thread 2^24 allocated 16 M empty
// feeds — 3 GB — and succeeded.)
func TestHostileFeedLog(t *testing.T) {
	s := workload.Bank()
	spawn := trace.Event{TID: 0, Kind: trace.EvSpawn, Obj: 1}
	header := flightrec.FeedLogBytes(nil)
	cases := []struct {
		name string
		log  []byte // nil keeps the recorded feed log
		// count, when set, gives the entry count the manifest is made to
		// declare, from the feed log's size in bytes.
		count func(logBytes uint64) uint64
	}{
		{"input from stream 2^63", flightrec.FeedLogBytes([]trace.Event{{Kind: trace.EvInput, Obj: 1 << 63, Val: trace.Int(1)}}), nil},
		{"output to stream 2^64-1", flightrec.FeedLogBytes([]trace.Event{{Kind: trace.EvOutput, Obj: math.MaxUint64, Val: trace.Int(1)}}), nil},
		{"thread 2^24", flightrec.FeedLogBytes([]trace.Event{{TID: 1 << 24, Kind: trace.EvYield}}), nil},
		{"thread 2^31-1", flightrec.FeedLogBytes([]trace.Event{{TID: math.MaxInt32, Kind: trace.EvYield}}), nil},
		{"thread 2^31", append(binary.AppendVarint(header[:len(header):len(header)], 1<<31), byte(trace.EvYield)), nil},
		{"thread -2^40", append(binary.AppendVarint(header[:len(header):len(header)], -(1<<40)), byte(trace.EvYield)), nil},
		{"thread 1 before any spawn", flightrec.FeedLogBytes([]trace.Event{{TID: 1, Kind: trace.EvYield}}), nil},
		{"thread 2 after one spawn", flightrec.FeedLogBytes([]trace.Event{spawn, {TID: 1, Kind: trace.EvYield}, {TID: 2, Kind: trace.EvYield}}), nil},
		{"manifest counts more entries than the log has bytes", nil, func(uint64) uint64 { return 1 << 40 }},
		{"manifest counts one entry per byte", nil, func(n uint64) uint64 { return n }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := flightRecord(t, s, flightrec.Options{Interval: 64})
			dir := res.Store.Dir()
			path := filepath.Join(dir, flightrec.FeedLogName)
			if tc.log != nil {
				if err := os.WriteFile(path, tc.log, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.count != nil {
				fi, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := flightrec.SetFeedCount(dir, tc.count(uint64(fi.Size()))); err != nil {
					t.Fatal(err)
				}
			}
			seqs := res.Store.SnapshotSeqs()
			target := seqs[len(seqs)-1]

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st, err := flightrec.Open(dir)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			_, err = replay.SeekStore(s, st, target, replay.Options{})
			runtime.ReadMemStats(&after)
			if !errors.Is(err, flightrec.ErrCorrupt) {
				t.Fatalf("seek: err = %v, want ErrCorrupt", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("failed seek allocated %d bytes", alloc)
			}
			// The failure is the store's, not the call's: every later use of
			// the feed log reports it again.
			if _, err := st.Sched(0); !errors.Is(err, flightrec.ErrCorrupt) {
				t.Fatalf("Sched after the failed seek: err = %v, want ErrCorrupt", err)
			}
		})
	}
}
