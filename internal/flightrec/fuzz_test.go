package flightrec

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"debugdet/internal/trace"
	"debugdet/internal/wire"
)

// fuzzDecoder is the one property the three flight-recorder decoders are
// fuzzed for (as record.Load and checkpoint.DecodeSnapshots are in their
// own packages): no panic; ErrCorrupt or a value that encodes again; and
// allocation bounded by the input's size (see FuzzLoadRecording in
// internal/record for the bound). Seeds are the golden spill files
// matching glob, whole and cut in half, and the hostile table's files
// whose case names start with hostile.
func fuzzDecoder(f *testing.F, glob, hostile string, decode func([]byte) (reencode func() error, err error)) {
	files, err := filepath.Glob(filepath.Join("../../testdata/golden/spill", glob))
	if err != nil || len(files) == 0 {
		f.Fatalf("no golden files match %s: %v", glob, err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	for _, hc := range hostileCases() {
		if strings.HasPrefix(hc.name, hostile) {
			f.Add(hc.file(hostileClaims[0]))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var reencode func() error
		var err error
		alloc := allocated(func() { reencode, err = decode(data) })
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
		} else if err := reencode(); err != nil {
			t.Fatalf("decoded value does not encode: %v", err)
		}
		if limit := uint64(1<<20 + 72*len(data)); alloc >= limit {
			t.Fatalf("%d input bytes made the decoder allocate %d (limit %d)", len(data), alloc, limit)
		}
	})
}

func FuzzDecodeSegment(f *testing.F) {
	fuzzDecoder(f, "*.ddseg", ".ddseg", func(data []byte) (func() error, error) {
		seg, err := DecodeSegment(bytes.NewReader(data))
		return func() error { _, err := EncodeSegment(io.Discard, seg); return err }, err
	})
}

func FuzzDecodeManifest(f *testing.F) {
	fuzzDecoder(f, manifestName, "manifest", func(data []byte) (func() error, error) {
		man, err := decodeManifest(bytes.NewReader(data))
		return func() error { return encodeManifest(io.Discard, man) }, err
	})
}

func FuzzReadFeedLog(f *testing.F) {
	fuzzDecoder(f, feedLogName, "feed log", func(data []byte) (func() error, error) {
		w := wire.NewWriter(io.Discard)
		writeFeedHeader(w)
		_, err := readFeedLog(wire.NewReader(bytes.NewReader(data), ErrCorrupt), func(_ uint64, fe *feedEntry) error {
			writeFeedEntry(w, &trace.Event{TID: fe.TID, Kind: fe.Kind, Obj: fe.Obj, Val: fe.Val, Taint: fe.Taint})
			return nil
		})
		return func() error { _, err := w.Finish(); return err }, err
	})
}
