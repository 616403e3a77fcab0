package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
)

// Binary log format
//
//	magic   "DDTL" (4 bytes)
//	version u8
//	header  scenario, model: string; seed: zigzag varint;
//	        params: uvarint count, then (string, zigzag varint) pairs
//	        labels: uvarint count, then (string, string) pairs
//	sites   uvarint count, then names (NoSite's empty name included)
//	events  uvarint count, then per event:
//	        dSeq, dTime (uvarint deltas), tid (zigzag), kind u8,
//	        site uvarint, obj uvarint, taint u8, value
//	value   kind u8, then payload (zigzag varint / uvarint-prefixed bytes)
//
// Sequence and time fields are delta-encoded: logs are monotone in both, so
// deltas are tiny and the format approaches one byte per field.

const (
	logMagic   = "DDTL"
	logVersion = 1
)

// Encoding errors.
var (
	ErrBadMagic   = errors.New("trace: bad magic, not a debugdet log")
	ErrBadVersion = errors.New("trace: unsupported log version")
	ErrCorrupt    = errors.New("trace: corrupt log")
)

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Encode writes the log in the binary format and returns the number of
// bytes written.
func Encode(w io.Writer, l *Log) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.WriteString(logMagic); err != nil {
		return cw.n, err
	}
	if err := bw.WriteByte(logVersion); err != nil {
		return cw.n, err
	}
	writeString(bw, l.Header.Scenario)
	writeString(bw, l.Header.Model)
	writeVarint(bw, l.Header.Seed)

	// Maps are written in sorted key order so encoding is deterministic.
	pkeys := make([]string, 0, len(l.Header.Params))
	for k := range l.Header.Params {
		pkeys = append(pkeys, k)
	}
	sort.Strings(pkeys)
	writeUvarint(bw, uint64(len(pkeys)))
	for _, k := range pkeys {
		writeString(bw, k)
		writeVarint(bw, l.Header.Params[k])
	}
	lkeys := make([]string, 0, len(l.Header.Labels))
	for k := range l.Header.Labels {
		lkeys = append(lkeys, k)
	}
	sort.Strings(lkeys)
	writeUvarint(bw, uint64(len(lkeys)))
	for _, k := range lkeys {
		writeString(bw, k)
		writeString(bw, l.Header.Labels[k])
	}

	// Iterate the table by index rather than copying it out: Encode
	// runs once per recorded log, including inside EncodedSize on the
	// recording overhead path.
	nSites := l.Sites.Len()
	writeUvarint(bw, uint64(nSites))
	for i := 0; i < nSites; i++ {
		writeString(bw, l.Sites.Name(SiteID(i)))
	}

	writeUvarint(bw, uint64(len(l.Events)))
	var prevSeq, prevTime uint64
	for i := range l.Events {
		e := &l.Events[i]
		writeUvarint(bw, e.Seq-prevSeq)
		writeUvarint(bw, e.Time-prevTime)
		prevSeq, prevTime = e.Seq, e.Time
		writeVarint(bw, int64(e.TID))
		bw.WriteByte(byte(e.Kind))
		writeUvarint(bw, uint64(e.Site))
		writeUvarint(bw, uint64(e.Obj))
		bw.WriteByte(byte(e.Taint))
		writeValue(bw, e.Val)
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// InputLen returns an upper bound on the bytes r can still deliver when r
// can tell — a Len method (bytes.Reader, bytes.Buffer) or a regular file's
// size — and -1 otherwise. Decoders check element counts against it (and
// reserve nothing up front without it), so a header claiming a billion
// elements cannot reserve gigabytes before one is read.
func InputLen(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size()
		}
	}
	return -1
}

// Decode reads a log in the binary format.
func Decode(r io.Reader) (*Log, error) {
	return DecodeBounded(bufio.NewReader(r), InputLen(r))
}

// DecodeBounded is Decode for a caller that buffers the input itself;
// limit is InputLen of the underlying reader, taken before buffering.
func DecodeBounded(br *bufio.Reader, limit int64) (*Log, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(magic) != logMagic {
		return nil, ErrBadMagic
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != logVersion {
		return nil, fmt.Errorf("%w: got %d want %d", ErrBadVersion, ver, logVersion)
	}
	l := &Log{Sites: NewSiteTable()}
	if l.Header.Scenario, err = readString(br); err != nil {
		return nil, err
	}
	if l.Header.Model, err = readString(br); err != nil {
		return nil, err
	}
	if l.Header.Seed, err = readVarint(br); err != nil {
		return nil, err
	}
	np, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if np > 0 {
		l.Header.Params = make(map[string]int64, np)
		for i := uint64(0); i < np; i++ {
			k, err := readString(br)
			if err != nil {
				return nil, err
			}
			v, err := readVarint(br)
			if err != nil {
				return nil, err
			}
			l.Header.Params[k] = v
		}
	}
	nl, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if nl > 0 {
		l.Header.Labels = make(map[string]string, nl)
		for i := uint64(0); i < nl; i++ {
			k, err := readString(br)
			if err != nil {
				return nil, err
			}
			v, err := readString(br)
			if err != nil {
				return nil, err
			}
			l.Header.Labels[k] = v
		}
	}

	ns, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if ns == 0 {
		return nil, fmt.Errorf("%w: empty site table", ErrCorrupt)
	}
	for i := uint64(0); i < ns; i++ {
		name, err := readString(br)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			if name != "" {
				return nil, fmt.Errorf("%w: site 0 must be unnamed", ErrCorrupt)
			}
			continue
		}
		l.Sites.Register(name)
	}

	ne, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if limit >= 0 {
		if ne > uint64(limit)/8 { // an event is at least eight one-byte fields
			return nil, fmt.Errorf("%w: event count %d exceeds the %d bytes of input", ErrCorrupt, ne, limit)
		}
		l.Events = make([]Event, 0, ne)
	}
	var prevSeq, prevTime uint64
	for i := uint64(0); i < ne; i++ {
		var e Event
		dSeq, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		dTime, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		prevSeq += dSeq
		prevTime += dTime
		e.Seq, e.Time = prevSeq, prevTime
		tid, err := readVarint(br)
		if err != nil {
			return nil, err
		}
		e.TID = ThreadID(tid)
		kb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		if EventKind(kb) >= kindCount {
			return nil, fmt.Errorf("%w: bad event kind %d", ErrCorrupt, kb)
		}
		e.Kind = EventKind(kb)
		site, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		e.Site = SiteID(site)
		obj, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		e.Obj = ObjID(obj)
		tb, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		e.Taint = Taint(tb)
		if e.Val, err = readValue(br); err != nil {
			return nil, err
		}
		l.Events = AppendEvent(l.Events, e)
	}
	return l, nil
}

// EncodedSize returns the size in bytes Encode would produce, without
// allocating the output.
func EncodedSize(l *Log) int64 {
	n, _ := Encode(io.Discard, l)
	return n
}

// WriteValue writes one value in the binary format. It is shared with the
// checkpoint codec, which embeds values in snapshot sections.
func WriteValue(w *bufio.Writer, v Value) { writeValue(w, v) }

// ReadValue reads one value written by WriteValue.
func ReadValue(r *bufio.Reader) (Value, error) { return readValue(r) }

func writeValue(w *bufio.Writer, v Value) {
	w.WriteByte(byte(v.Kind))
	switch v.Kind {
	case VNil:
	case VInt, VBool:
		writeVarint(w, v.Int)
	case VString:
		writeString(w, v.Str)
	case VBytes:
		writeUvarint(w, uint64(len(v.Bytes)))
		w.Write(v.Bytes)
	}
}

func readValue(r *bufio.Reader) (Value, error) {
	kb, err := r.ReadByte()
	if err != nil {
		return Nil, err
	}
	v := Value{Kind: ValueKind(kb)}
	switch v.Kind {
	case VNil:
	case VInt, VBool:
		if v.Int, err = readVarint(r); err != nil {
			return Nil, err
		}
	case VString:
		if v.Str, err = readString(r); err != nil {
			return Nil, err
		}
	case VBytes:
		n, err := readUvarint(r)
		if err != nil {
			return Nil, err
		}
		const maxBlob = 64 << 20
		if n > maxBlob {
			return Nil, fmt.Errorf("%w: implausible blob size %d", ErrCorrupt, n)
		}
		v.Bytes = make([]byte, n)
		if _, err := io.ReadFull(r, v.Bytes); err != nil {
			return Nil, err
		}
	default:
		return Nil, fmt.Errorf("%w: bad value kind %d", ErrCorrupt, kb)
	}
	return v, nil
}

// writeUvarint and writeVarint encode straight into the writer's free
// buffer space: a local scratch array would escape through Write and cost
// one heap allocation per field.
func writeUvarint(w *bufio.Writer, v uint64) {
	w.Write(binary.AppendUvarint(w.AvailableBuffer(), v))
}

func writeVarint(w *bufio.Writer, v int64) {
	w.Write(binary.AppendVarint(w.AvailableBuffer(), v))
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readUvarint(r *bufio.Reader) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return v, nil
}

func readVarint(r *bufio.Reader) (int64, error) {
	v, err := binary.ReadVarint(r)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return v, nil
}

func readString(r *bufio.Reader) (string, error) {
	n, err := readUvarint(r)
	if err != nil {
		return "", err
	}
	const maxString = 16 << 20
	if n > maxString {
		return "", fmt.Errorf("%w: implausible string size %d", ErrCorrupt, n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return string(b), nil
}
