// Package wire is the one primitive layer under the five on-disk formats
// (.ddrc, the DDCP snapshot section, .ddseg, manifest.ddmf, feeds.ddfl):
// a counting Writer and a Reader whose error is sticky and whose every
// element count is held against the bytes the input can still deliver.
// DESIGN.md "Wire formats" has the primitive table and the containers.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"math/bits"
	"strings"
)

// Writer encodes primitives into a buffer in front of the destination. The
// first write error sticks (bufio's contract) and surfaces from Finish, so
// encoders are straight-line code.
type Writer struct {
	bw  *bufio.Writer
	dst io.Writer
	n   int64
}

// sink is the Writer seen from its own buffer: it counts what reaches dst.
type sink Writer

func (s *sink) Write(p []byte) (int, error) {
	n, err := s.dst.Write(p)
	s.n += int64(n)
	return n, err
}

// NewWriter returns a Writer on dst with bufio's default buffer.
func NewWriter(dst io.Writer) *Writer { return NewWriterSize(dst, 4096) }

// NewWriterSize returns a Writer on dst with a buffer of size bytes, for a
// destination written to for a whole run rather than one container.
func NewWriterSize(dst io.Writer, size int) *Writer {
	w := &Writer{dst: dst}
	w.bw = bufio.NewWriterSize((*sink)(w), size)
	return w
}

// Byte writes one byte.
func (w *Writer) Byte(b byte) { w.bw.WriteByte(b) }

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.bw.Write(binary.AppendUvarint(w.scratch(), v))
}

// Varint writes a zigzag varint.
func (w *Writer) Varint(v int64) {
	w.bw.Write(binary.AppendVarint(w.scratch(), v))
}

// UvarintLen returns the bytes Uvarint writes for v: one per started 7
// bits, and one for 0 (9b+64 over 64 is ceil(b/7) for b in 1..64).
func UvarintLen(v uint64) int { return int(9*uint32(bits.Len64(v))+64) / 64 }

// VarintLen returns the bytes Varint writes for v.
func VarintLen(v int64) int { return UvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// scratch returns the buffer's free space for a varint to be encoded
// straight into: a local array would escape through Write and cost one
// heap allocation per field. So would appending past the free space, so a
// buffer too full for the longest varint is flushed first.
func (w *Writer) scratch() []byte {
	if w.bw.Available() < binary.MaxVarintLen64 {
		w.bw.Flush()
	}
	return w.bw.AvailableBuffer()
}

// String writes a uvarint length and the bytes of s.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.bw.WriteString(s)
}

// Magic writes a container's magic string, unprefixed.
func (w *Writer) Magic(magic string) { w.bw.WriteString(magic) }

// Written returns the bytes that have reached the destination so far;
// what is still buffered is not counted until Finish.
func (w *Writer) Written() int64 { return w.n }

// Finish flushes the buffer and returns the bytes written to the
// destination and the first error any write met. The Writer stays usable:
// a log appended to over a run calls Finish at each point it must be on
// disk.
func (w *Writer) Finish() (int64, error) {
	err := w.bw.Flush()
	return w.n, err
}

// Reader decodes primitives from an input of known size. Its first failure
// — an I/O error, a short read, a count that cannot fit, or one reported
// through Failf — sticks, wrapped in the sentinel of the format being
// read; after it every method returns a zero value, so decoders are
// straight-line code that checks Err once per container, plus wherever a
// loop should stop early.
type Reader struct {
	br       bufio.Reader
	src      io.Reader
	fetched  int64 // bytes br has pulled from src
	size     int64 // bytes src held when the Reader was made
	sentinel error
	err      error
}

// source is the Reader seen from its own buffer: it counts what the
// buffer has fetched, so "bytes left" costs nothing per byte read.
type source Reader

func (s *source) Read(p []byte) (int, error) {
	n, err := s.src.Read(p)
	s.fetched += int64(n)
	return n, err
}

// NewReader returns a Reader on src whose failures wrap sentinel. The
// bytes src can deliver bound every count read from it: a source that can
// tell (Len, Size, or Stat on a regular file) is believed; any other is
// read to its end first, so there is one bound and one path whatever the
// caller hands in.
func NewReader(src io.Reader, sentinel error) *Reader {
	r := &Reader{src: src, sentinel: sentinel, size: -1}
	switch s := src.(type) {
	case interface{ Len() int }:
		r.size = int64(s.Len())
	case interface{ Size() int64 }:
		r.size = s.Size()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			r.size = fi.Size()
		}
	}
	var readErr error
	if r.size < 0 {
		var data []byte
		data, readErr = io.ReadAll(src)
		r.src, r.size = bytes.NewReader(data), int64(len(data))
	}
	r.br.Reset((*source)(r))
	if readErr != nil {
		r.Failf("%v", readErr)
	}
	return r
}

// Err returns the sticky error, nil while every read has succeeded.
func (r *Reader) Err() error { return r.err }

// Failf records a failure the decoder found in what it read (a bad kind
// byte, a section out of order). The first failure wins.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at byte %d", r.sentinel, fmt.Sprintf(format, args...), r.Offset())
	}
}

// Offset returns the bytes consumed so far: fetched by the buffer and
// handed on. The difference of two offsets is what a section between them
// occupies in the input.
func (r *Reader) Offset() int64 { return r.fetched - int64(r.br.Buffered()) }

// left is the bytes the input can still deliver.
func (r *Reader) left() uint64 { return uint64(max(r.size-r.Offset(), 0)) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	b, err := r.br.ReadByte()
	if err != nil {
		r.Failf("%v", err)
	}
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(&r.br)
	if err != nil {
		r.Failf("%v", err)
		return 0
	}
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(&r.br)
	if err != nil {
		r.Failf("%v", err)
		return 0
	}
	return v
}

// Count reads an element count and refuses it unless that many elements
// of at least minElemBytes each fit in the bytes left. It is the one
// bound on hostile input: whatever a decoder reserves for n elements is
// proportional to bytes the file really has.
func (r *Reader) Count(what string, minElemBytes int) int {
	return r.Claim(what, r.Uvarint(), minElemBytes)
}

// Claim is Count for a count stored outside this input (the manifest's
// feed-entry count, checked against the feed log).
func (r *Reader) Claim(what string, n uint64, minElemBytes int) int {
	if r.err != nil {
		return 0
	}
	if left := r.left(); n > left/uint64(minElemBytes) {
		r.Failf("%d %s of at least %d bytes each cannot fit in the %d bytes left", n, what, minElemBytes, left)
		return 0
	}
	return int(n)
}

// String reads a uvarint length and that many bytes as a string, built
// in place at its checked length: one allocation, none for "".
func (r *Reader) String() string {
	n := r.Count("string bytes", 1)
	if r.err != nil || n == 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(n)
	for b.Len() < n {
		p, err := r.br.Peek(min(n-b.Len(), r.br.Size()))
		b.Write(p)
		r.br.Discard(len(p))
		if err != nil {
			r.Failf("%v", err)
			return ""
		}
	}
	return b.String()
}

// Magic reads a container's magic string and fails unless it is magic.
func (r *Reader) Magic(magic string) {
	if r.err != nil {
		return
	}
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(&r.br, got); err != nil {
		r.Failf("magic %s: %v", magic, err)
	} else if string(got) != magic {
		r.Failf("bad magic %q (want %q)", got, magic)
	}
}

// Version reads the version byte and fails unless it is want.
func (r *Reader) Version(want byte) {
	if v := r.Byte(); r.err == nil && v != want {
		r.Failf("unsupported version %d (want %d)", v, want)
	}
}

// More reports whether the input has another byte, for containers that
// run to end of file instead of carrying a count.
func (r *Reader) More() bool {
	if r.err != nil {
		return false
	}
	_, err := r.br.Peek(1)
	if err != nil && err != io.EOF {
		r.Failf("%v", err)
	}
	return err == nil
}
