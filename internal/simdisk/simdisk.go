// Package simdisk is the programmer-facing layer over the VM's simulated
// disk resource (vm.NewDisk and the Thread disk operations): write-ahead-log
// record framing with a checksum trailer, and scan helpers recovery code
// uses to rebuild state after a crash.
//
// The framing exists to make torn writes *detectable*: the VM's torn-write
// fault truncates a record to a byte prefix, and only a recovery path that
// verifies the trailer can tell a torn record from a whole one. Decode is
// that careful path; DecodeLoose is the buggy one — it pads a short record
// with zeros and skips the checksum, deterministically turning a torn tail
// into garbage fields, which is exactly the defect the disk-tornwal
// scenario injects.
//
// Records are sequences of int64 fields, encoded big-endian fixed-width so
// a truncation point is always mid-field or between fields, never
// ambiguous.
package simdisk

import (
	"encoding/binary"
	"strings"

	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// fieldBytes is the encoded width of one record field; the checksum
// trailer is one more field-width word.
const fieldBytes = 8

// Encode frames the fields as one WAL record: each field big-endian in 8
// bytes, followed by an 8-byte FNV-1a checksum of the field bytes. The
// record is built once, at its final size.
func Encode(fields ...int64) string {
	var b strings.Builder
	b.Grow(fieldBytes * (len(fields) + 1))
	var w [fieldBytes]byte
	for _, f := range fields {
		binary.BigEndian.PutUint64(w[:], uint64(f))
		b.Write(w[:])
	}
	binary.BigEndian.PutUint64(w[:], checksum(b.String()))
	b.Write(w[:])
	return b.String()
}

// Decode unframes a record, verifying its checksum trailer. ok is false
// for torn, truncated or otherwise corrupt records — the signal a correct
// recovery path uses to stop at the last good record.
func Decode(b string) (fields []int64, ok bool) {
	if len(b) < fieldBytes || len(b)%fieldBytes != 0 {
		return nil, false
	}
	n := len(b)/fieldBytes - 1
	if checksum(b[:fieldBytes*n]) != word(b, n) {
		return nil, false
	}
	fields = make([]int64, n)
	for i := range fields {
		fields[i] = int64(word(b, i))
	}
	return fields, true
}

// word returns the i-th big-endian field word of b.
func word(b string, i int) uint64 {
	return binary.BigEndian.Uint64([]byte(b[fieldBytes*i : fieldBytes*(i+1)]))
}

// DecodeLoose unframes a record without verifying anything: short records
// are zero-padded to whole fields and the last word is discarded as the
// presumed checksum. On a whole record it agrees with Decode; on a torn
// record it returns deterministic garbage. It exists to model recovery
// code that trusts the device — the injected defect of the torn-WAL
// scenario — and must never be used where corruption matters.
func DecodeLoose(b string) []int64 {
	padded := b
	if pad := len(b) % fieldBytes; pad != 0 {
		padded += strings.Repeat("\x00", fieldBytes-pad)
	}
	words := len(padded) / fieldBytes
	n := words - 1 // drop the trailer word
	if n < 0 {
		n = 0
	}
	fields := make([]int64, n)
	for i := range fields {
		fields[i] = int64(word(padded, i))
	}
	return fields
}

// checksum is 64-bit FNV-1a over the field bytes.
func checksum(b string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime
	}
	return h
}

// Append frames the fields and writes them as one record on the disk. The
// write is volatile until an fsync or barrier.
func Append(t *vm.Thread, site trace.SiteID, disk trace.ObjID, fields ...int64) {
	t.DiskWrite(site, disk, trace.Blob(Encode(fields...)))
}

// Scan reads every record off the disk, oldest first, until the
// end-of-log Nil. Raw record bytes are returned — possibly torn, if a
// crash tore the tail — for the caller's Decode/DecodeLoose to interpret.
// Every read is a VM operation, so a recovery scan is replayed faithfully
// under every determinism model.
func Scan(t *vm.Thread, site trace.SiteID, disk trace.ObjID) []string {
	var recs []string
	for i := 0; ; i++ {
		v := t.DiskRead(site, disk, i)
		if v.IsNil() {
			return recs
		}
		recs = append(recs, v.Str)
	}
}
