package flightrec

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"debugdet/internal/checkpoint"
	"debugdet/internal/record"
	"debugdet/internal/trace"
	"debugdet/internal/wire"
)

// hostileCase is a well-formed file up to one element count (or string or
// blob length), which the test then makes claim far more than the file
// holds. The file ends at the claim: the body is empty.
type hostileCase struct {
	name     string
	sentinel error
	decode   func([]byte) error
	prefix   func(w *wire.Writer) // everything before the claimed count
}

func decodeLog(b []byte) error { _, err := trace.Decode(bytes.NewReader(b)); return err }
func loadRec(b []byte) error   { _, err := record.Load(bytes.NewReader(b)); return err }
func decodeSeg(b []byte) error { _, err := DecodeSegment(bytes.NewReader(b)); return err }
func decodeMan(b []byte) error { _, err := decodeManifest(bytes.NewReader(b)); return err }
func decodeSnaps(b []byte) error {
	_, err := checkpoint.DecodeSnapshots(bufio.NewReader(bytes.NewReader(b)))
	return err
}
func scanFeedLog(b []byte) error {
	_, err := readFeedLog(wire.NewReader(bytes.NewReader(b), ErrCorrupt), func(uint64, *feedEntry) error { return nil })
	return err
}

// uvarints writes n zero uvarints (empty counts, zero counters).
func uvarints(w *wire.Writer, n int) {
	for i := 0; i < n; i++ {
		w.Uvarint(0)
	}
}

// logHeader writes a DDTL log up to its event count.
func logHeader(w *wire.Writer) {
	w.Magic("DDTL")
	w.Byte(2)
	w.String("x")
	w.String("perfect")
	uvarints(w, 2) // seed, no params
	w.Uvarint(1)   // one site:
	w.String("")   // NoSite
}

// snapHeader writes a DDCP section of one snapshot up to its thread count.
func snapHeader(w *wire.Writer) { snapsHeader(w, 1) }

// snapsHeader writes a DDCP section of n snapshots up to the first one's
// thread count.
func snapsHeader(w *wire.Writer, n uint64) {
	w.Magic("DDCP")
	w.Uvarint(n)
	uvarints(w, 6) // seq, clock, recordCycles, schedPos, live, liveNonDaemon
}

// inheritingSnapHeader writes a DDCP section of two snapshots up to the
// second one's thread count. The first has one thread and one stream,
// which the second inherits with their names.
func inheritingSnapHeader(w *wire.Writer) {
	snapsHeader(w, 2)
	w.Uvarint(1)   // one thread:
	w.String("t")  // its name
	uvarints(w, 5) // flags, taint, pendingCode, pendingObj, pendingDeadline
	uvarints(w, 3) // no cells, mutexes or chans
	w.Uvarint(1)   // one stream:
	w.String("s")  // its name
	uvarints(w, 2) // inIndex; no disks
	uvarints(w, 6) // the second snapshot's counters
}

// manHeader writes a manifest up to its param count.
func manHeader(w *wire.Writer) {
	w.Magic("DDMF")
	w.Byte(1)
	w.String("x")
	w.String("perfect")
	w.Varint(0)
}

func hostileCases() []hostileCase {
	// A .ddrc up to its stream count: scenario, model, seed, no params,
	// flags, failure signature, overhead, base and total cycles, events.
	ddrc := func(w *wire.Writer) {
		w.Magic("DDRC")
		w.Byte(6)
		w.String("x")
		uvarints(w, 5)
		uvarints(w, 4)
	}
	// The segment spans [0, 2^24), so that claim agrees with its header.
	ddseg := func(w *wire.Writer) { w.Magic("DDSG"); w.Byte(1); uvarints(w, 2); w.Uvarint(1 << 24) }
	return []hostileCase{
		{"DDTL scenario string bytes", trace.ErrCorrupt, decodeLog, func(w *wire.Writer) { w.Magic("DDTL"); w.Byte(2) }},
		{"DDTL sites", trace.ErrCorrupt, decodeLog, func(w *wire.Writer) { w.Magic("DDTL"); w.Byte(2); uvarints(w, 4) }},
		{"DDTL events", trace.ErrCorrupt, decodeLog, logHeader},
		{".ddrc streams", record.ErrBadRecording, loadRec, ddrc},
		{".ddrc events", record.ErrBadRecording, loadRec, func(w *wire.Writer) { ddrc(w); uvarints(w, 1) }},
		{".ddrc schedule", record.ErrBadRecording, loadRec, func(w *wire.Writer) { ddrc(w); uvarints(w, 2) }},
		{".ddrc snapshots", record.ErrBadRecording, loadRec, func(w *wire.Writer) { ddrc(w); uvarints(w, 3); w.Magic("DDCP") }},
		{"DDCP snapshots", checkpoint.ErrBadSnapshot, decodeSnaps, func(w *wire.Writer) { w.Magic("DDCP") }},
		{"DDCP threads", checkpoint.ErrBadSnapshot, decodeSnaps, snapHeader},
		{"DDCP thread name string bytes", checkpoint.ErrBadSnapshot, decodeSnaps, func(w *wire.Writer) { snapHeader(w); w.Uvarint(1) }},
		{"DDCP cells", checkpoint.ErrBadSnapshot, decodeSnaps, func(w *wire.Writer) { snapHeader(w); uvarints(w, 1) }},
		{"DDCP cell value blob", checkpoint.ErrBadSnapshot, decodeSnaps, func(w *wire.Writer) { snapHeader(w); uvarints(w, 1); w.Uvarint(1); w.Byte(byte(trace.VBytes)) }},
		{"DDCP cell value string", checkpoint.ErrBadSnapshot, decodeSnaps, func(w *wire.Writer) { snapHeader(w); uvarints(w, 1); w.Uvarint(1); w.Byte(byte(trace.VString)) }},
		{"DDCP mutexes", checkpoint.ErrBadSnapshot, decodeSnaps, func(w *wire.Writer) { snapHeader(w); uvarints(w, 2) }},
		{"DDCP chans", checkpoint.ErrBadSnapshot, decodeSnaps, func(w *wire.Writer) { snapHeader(w); uvarints(w, 3) }},
		{"DDCP chan slots", checkpoint.ErrBadSnapshot, decodeSnaps, func(w *wire.Writer) { snapHeader(w); uvarints(w, 3); w.Uvarint(1) }},
		{"DDCP streams", checkpoint.ErrBadSnapshot, decodeSnaps, func(w *wire.Writer) { snapHeader(w); uvarints(w, 4) }},
		{"DDCP disks", checkpoint.ErrBadSnapshot, decodeSnaps, func(w *wire.Writer) { snapHeader(w); uvarints(w, 5) }},
		{"DDCP disk records", checkpoint.ErrBadSnapshot, decodeSnaps, func(w *wire.Writer) { snapHeader(w); uvarints(w, 5); w.Uvarint(1) }},
		{"DDCP inherited threads", checkpoint.ErrBadSnapshot, decodeSnaps, inheritingSnapHeader},
		{"DDCP inherited streams", checkpoint.ErrBadSnapshot, decodeSnaps, func(w *wire.Writer) {
			inheritingSnapHeader(w)
			w.Uvarint(1)   // the inherited thread, nameless:
			uvarints(w, 5) // flags, taint, pendingCode, pendingObj, pendingDeadline
			uvarints(w, 3) // no cells, mutexes or chans
		}},
		{".ddseg snapshots", ErrCorrupt, decodeSeg, func(w *wire.Writer) { ddseg(w); w.Magic("DDCP") }},
		{".ddseg events", ErrCorrupt, decodeSeg, func(w *wire.Writer) { ddseg(w); w.Magic("DDCP"); w.Uvarint(0) }},
		{"manifest params", ErrCorrupt, decodeMan, manHeader},
		{"manifest streams", ErrCorrupt, decodeMan, func(w *wire.Writer) { manHeader(w); uvarints(w, 1) }},
		{"manifest segments", ErrCorrupt, decodeMan, func(w *wire.Writer) { manHeader(w); uvarints(w, 4); w.Byte(0); uvarints(w, 3) }},
		{"feed log value blob", ErrCorrupt, scanFeedLog, func(w *wire.Writer) {
			writeFeedHeader(w)
			w.Varint(0)
			w.Byte(byte(trace.EvStore))
			w.Byte(byte(trace.VBytes))
		}},
	}
}

// file returns the case's file: its prefix, then the claim.
func (hc hostileCase) file(claim uint64) []byte {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	hc.prefix(w)
	w.Uvarint(claim)
	w.Finish()
	return buf.Bytes()
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hostileClaims are the counts each case is made to claim: the largest a
// uvarint can express, and 2^24 — under the flat 2^28 cap the DDCP, .ddseg
// and manifest decoders used to apply, which let a 20-byte segment file
// reserve 1.6 GB, a 20-byte manifest 256 MB, a 15-byte snapshot section
// 640 MB and a 9-byte log 16 MB before each noticed its body was missing.
var hostileClaims = []uint64{1 << 24, math.MaxUint64}

// TestHostileCounts: every element count, string length and blob length in
// every format is held against the bytes the file still has. A file that
// ends at a huge claim gets the format's typed error, having made the
// decoder allocate under 1 MB.
func TestHostileCounts(t *testing.T) {
	for _, hc := range hostileCases() {
		for _, claim := range hostileClaims {
			data := hc.file(claim)
			var err error
			alloc := allocated(func() { err = hc.decode(data) })
			if !errors.Is(err, hc.sentinel) || strings.Contains(err.Error(), "version") {
				t.Errorf("%s claiming %d: error %v, want %v past the version byte", hc.name, claim, err, hc.sentinel)
			}
			if alloc >= 1<<20 {
				t.Errorf("%s claiming %d: a %d-byte file made the decoder allocate %d bytes", hc.name, claim, len(data), alloc)
			}
		}
	}
}
