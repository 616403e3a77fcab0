package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime"
	"testing"

	"debugdet/internal/trace"
)

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzLoadRecording feeds arbitrary bytes to Load: it must never panic;
// it either fails with ErrBadRecording or yields a recording that saves
// again; and what it allocates is bounded by the bytes it was given — 1 MB
// of slack plus 72 per input byte, what the densest element any format has
// decodes to per byte (a one-byte stream entry inherited from the previous
// snapshot decodes to 72 bytes) — never by a number the input merely
// claims.
func FuzzLoadRecording(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/golden/bank.ddrc")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	// An empty recording ends: stream count 0, event count 0, schedule
	// count 0, then the five-byte empty snapshot section. Make each count
	// claim 2^30.
	var empty bytes.Buffer
	if err := (&Recording{Scenario: "x", Model: Perfect}).Save(&empty); err != nil {
		f.Fatal(err)
	}
	data, huge := empty.Bytes(), binary.AppendUvarint(nil, 1<<30)
	tail := len(data) - 7
	f.Add(append(data[:tail:tail], huge...))
	f.Add(append(data[:tail+1:tail+1], huge...))
	f.Add(append(data[:tail-1:tail-1], huge...))
	// An RCSE recording whose schedule misses one of the run's events.
	var short bytes.Buffer
	if err := (&Recording{Model: DebugRCSE, EventCount: 3, Sched: []trace.ThreadID{0, 1}}).Save(&short); err != nil {
		f.Fatal(err)
	}
	f.Add(short.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		var rec *Recording
		var err error
		alloc := allocated(func() { rec, err = Load(bytes.NewReader(data)) })
		if err != nil {
			if !errors.Is(err, ErrBadRecording) {
				t.Fatalf("untyped error: %v", err)
			}
		} else if err := rec.Save(io.Discard); err != nil {
			t.Fatalf("loaded recording does not save: %v", err)
		}
		if limit := uint64(1<<20 + 72*len(data)); alloc >= limit {
			t.Fatalf("%d input bytes made Load allocate %d (limit %d)", len(data), alloc, limit)
		}
	})
}
