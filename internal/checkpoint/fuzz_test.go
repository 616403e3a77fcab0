package checkpoint_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime"
	"testing"

	"debugdet/internal/checkpoint"
	"debugdet/internal/vm"
)

// FuzzDecodeSnapshots feeds arbitrary bytes to the snapshot-section
// decoder: no panic; ErrBadSnapshot or snapshots that encode again; and
// allocation bounded by the input's size (see FuzzLoadRecording in
// internal/record for the bound).
func FuzzDecodeSnapshots(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/golden/bank.ddcp")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(binary.AppendUvarint([]byte("DDCP"), 1<<24))                             // snapshots claimed
	f.Add(binary.AppendUvarint([]byte("DDCP\x01\x00\x00\x00\x00\x00\x00"), 1<<24)) // threads claimed
	// The second snapshot inherits its names and has fewer threads and
	// streams than the first.
	var inheriting bytes.Buffer
	if _, err := checkpoint.EncodeSnapshots(&inheriting, []*vm.Snapshot{
		{Threads: []vm.ThreadSnap{{Name: "main"}, {Name: "worker"}}, Streams: []vm.StreamSnap{{Name: "in"}, {Name: "out"}}},
		{Seq: 1, Threads: []vm.ThreadSnap{{Name: "main", Done: true}}, Streams: []vm.StreamSnap{{Name: "in", InIndex: 1}}},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(inheriting.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		var snaps []*vm.Snapshot
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snaps, err = checkpoint.DecodeSnapshots(bufioReader(data))
		runtime.ReadMemStats(&after)
		if err != nil {
			if !errors.Is(err, checkpoint.ErrBadSnapshot) {
				t.Fatalf("untyped error: %v", err)
			}
		} else if _, err := checkpoint.EncodeSnapshots(io.Discard, snaps); err != nil {
			t.Fatalf("decoded snapshots do not encode: %v", err)
		}
		alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+72*len(data))
		if alloc >= limit {
			t.Fatalf("%d input bytes made the decoder allocate %d (limit %d)", len(data), alloc, limit)
		}
	})
}
