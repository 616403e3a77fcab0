package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
)

var errFormat = errors.New("test: malformed")

func encoded(t *testing.T, write func(w *Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	write(w)
	n, err := w.Finish()
	if err != nil || n != int64(buf.Len()) || w.Written() != n {
		t.Fatalf("Finish = %d, %v; Written = %d; destination holds %d", n, err, w.Written(), buf.Len())
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := encoded(t, func(w *Writer) {
		w.Magic("TEST")
		w.Byte(7)
		w.Uvarint(math.MaxUint64)
		w.Varint(math.MinInt64)
		w.String("héllo")
		w.String("")
		w.Uvarint(2)
		w.Byte(1)
		w.Byte(2)
	})
	r := NewReader(bytes.NewReader(data), errFormat)
	r.Magic("TEST")
	r.Version(7)
	if u, v, s, e := r.Uvarint(), r.Varint(), r.String(), r.String(); u != math.MaxUint64 || v != math.MinInt64 || s != "héllo" || e != "" {
		t.Fatalf("read %d %d %q %q", u, v, s, e)
	}
	if n := r.Count("bytes", 1); n != 2 || !r.More() || r.Byte() != 1 || r.Byte() != 2 || r.More() {
		t.Fatalf("count %d, then the wrong bytes or the wrong end", n)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

// TestVarintLen: UvarintLen and VarintLen are the bytes Uvarint and
// Varint write, at every length boundary and at the ends of the types.
func TestVarintLen(t *testing.T) {
	for shift := 0; shift < 64; shift++ {
		for _, u := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1, math.MaxUint64 >> shift} {
			if got, want := UvarintLen(u), len(encoded(t, func(w *Writer) { w.Uvarint(u) })); got != want {
				t.Errorf("UvarintLen(%d) = %d, Uvarint writes %d", u, got, want)
			}
			for _, v := range []int64{int64(u), -int64(u), int64(u >> 1), -int64(u >> 1)} {
				if got, want := VarintLen(v), len(encoded(t, func(w *Writer) { w.Varint(v) })); got != want {
					t.Errorf("VarintLen(%d) = %d, Varint writes %d", v, got, want)
				}
			}
		}
	}
}

// TestCountIsBoundedByTheInput: a count passes exactly when its elements
// fit in the bytes left, whichever way the Reader learned the input's
// size — Len, Stat on a file, or reading an opaque source to its end.
func TestCountIsBoundedByTheInput(t *testing.T) {
	data := encoded(t, func(w *Writer) {
		w.Uvarint(5)
		w.Magic("0123456789") // ten bytes follow the count
	})
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	file, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	sources := map[string]func() io.Reader{
		"Len":    func() io.Reader { return bytes.NewReader(data) },
		"Stat":   func() io.Reader { file.Seek(0, io.SeekStart); return file },
		"opaque": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
	}
	for name, open := range sources {
		if r := NewReader(open(), errFormat); r.Count("pairs", 2) != 5 || r.Err() != nil {
			t.Errorf("%s: five 2-byte elements in ten bytes refused: %v", name, r.Err())
		}
		r := NewReader(open(), errFormat)
		if n := r.Count("triples", 3); n != 0 || !errors.Is(r.Err(), errFormat) {
			t.Errorf("%s: five 3-byte elements in ten bytes: count %d, err %v", name, n, r.Err())
		}
		if r := NewReader(open(), errFormat); r.Claim("declared elsewhere", 12, 1) != 0 || !errors.Is(r.Err(), errFormat) {
			t.Errorf("%s: a claim of 12 bytes against 11 passed", name)
		}
	}
}

// TestErrorSticks: the first failure is the one reported, wrapped in the
// format's sentinel with the offset it happened at, and every later read
// returns zero without touching the input.
func TestErrorSticks(t *testing.T) {
	r := NewReader(strings.NewReader("AB\x05xy"), errFormat)
	r.Magic("AB")
	if s := r.String(); s != "" { // claims five bytes, two are left
		t.Fatalf("short string read as %q", s)
	}
	first := r.Err()
	if !errors.Is(first, errFormat) || !strings.Contains(first.Error(), "at byte 3") {
		t.Fatalf("error %v, want the sentinel and the offset", first)
	}
	r.Failf("a later complaint")
	r.Magic("xy")
	if r.Byte() != 0 || r.Uvarint() != 0 || r.Varint() != 0 || r.String() != "" || r.Count("x", 1) != 0 || r.More() || r.Err() != first {
		t.Fatalf("reads after the failure returned data or replaced the error: %v", r.Err())
	}

	cases := map[string]func(r *Reader){
		"bad magic":     func(r *Reader) { r.Magic("XY") },
		"short magic":   func(r *Reader) { r.Magic("ABCDEFGH") },
		"wrong version": func(r *Reader) { r.Magic("AB"); r.Version(4) },
		"past the end":  func(r *Reader) { r.Magic("AB\x05xy"); r.Uvarint() },
	}
	for name, read := range cases {
		r := NewReader(strings.NewReader("AB\x05xy"), errFormat)
		read(r)
		if !errors.Is(r.Err(), errFormat) {
			t.Errorf("%s: error %v", name, r.Err())
		}
	}
	if r := NewReader(bytes.NewReader(bytes.Repeat([]byte{0xff}, 11)), errFormat); r.Uvarint() != 0 || !errors.Is(r.Err(), errFormat) {
		t.Errorf("an 11-byte varint decoded: %v", r.Err())
	}

	// A source that fails mid-read fails the Reader.
	broken := io.MultiReader(strings.NewReader("AB"), iotest.ErrReader(errors.New("disk on fire")))
	if r := NewReader(broken, errFormat); !errors.Is(r.Err(), errFormat) || !strings.Contains(r.Err().Error(), "disk on fire") {
		t.Errorf("read error lost: %v", r.Err())
	}
}

// TestStringAllocatesOnce: a string longer than the Reader's buffer is
// read across refills into one allocation of its length.
func TestStringAllocatesOnce(t *testing.T) {
	long := strings.Repeat("0123456789", 1000)
	const runs = 20
	data := encoded(t, func(w *Writer) {
		for range runs + 1 { // AllocsPerRun adds a warm-up call
			w.String(long)
		}
	})
	r := NewReader(bytes.NewReader(data), errFormat)
	allocs := testing.AllocsPerRun(runs, func() {
		if s := r.String(); s != long {
			t.Fatalf("read %d bytes, want the %d written", len(s), len(long))
		}
	})
	if allocs != 1 || r.Err() != nil || r.More() {
		t.Fatalf("a %d-byte string cost %.0f allocations, want 1 (err %v)", len(long), allocs, r.Err())
	}

	// A source shorter than it claims fails the string, not the count.
	lying := struct {
		io.Reader
		lenOf
	}{bytes.NewReader(data[:3000]), lenOf(len(data))}
	if r := NewReader(lying, errFormat); r.String() != "" || !errors.Is(r.Err(), errFormat) {
		t.Fatalf("a string cut short by the source read cleanly: %v", r.Err())
	}
}

// lenOf is a source's claimed length.
type lenOf int

func (n lenOf) Len() int { return int(n) }

// TestWriteErrorSurfacesFromFinish: encoders never check a write; the
// first failure comes back from Finish with the bytes that did land.
func TestWriteErrorSurfacesFromFinish(t *testing.T) {
	w := NewWriterSize(&failAfter{left: 8}, 16)
	for i := 0; i < 100; i++ {
		w.String("0123456789")
	}
	if n, err := w.Finish(); err == nil || n != 8 || w.Written() != 8 {
		t.Fatalf("Finish = %d, %v after the destination failed at byte 8", n, err)
	}
}

// failAfter accepts left more bytes, then fails.
type failAfter struct{ left int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.left {
		n := f.left
		f.left = 0
		return n, errors.New("destination full")
	}
	f.left -= len(p)
	return len(p), nil
}
