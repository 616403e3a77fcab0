package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"debugdet/internal/wire"
)

func sampleLog() *Log {
	l := NewLog(Header{
		Scenario: "sample",
		Model:    "perfect",
		Seed:     42,
		Params:   map[string]int64{"clients": 3, "rows": 100},
	})
	sA := l.Sites.Register("a.load")
	sB := l.Sites.Register("b.store")
	l.Append(Event{Seq: 0, Time: 10, TID: 0, Kind: EvSpawn, Obj: 1, Val: Str("w")})
	l.Append(Event{Seq: 1, Time: 25, TID: 1, Kind: EvLoad, Site: sA, Obj: 7, Val: Int(5)})
	l.Append(Event{Seq: 2, Time: 40, TID: 1, Kind: EvStore, Site: sB, Obj: 7, Val: Int(6), Taint: TaintData})
	l.Append(Event{Seq: 3, Time: 55, TID: 0, Kind: EvOutput, Obj: 0, Val: Str("done")})
	l.Append(Event{Seq: 4, Time: 70, TID: 1, Kind: EvExit})
	l.Append(Event{Seq: 5, Time: 90, TID: 0, Kind: EvFail, Val: Str("boom")})
	return l
}

func TestCodecRoundTrip(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	n, err := Encode(&buf, l)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Encode reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !EventsEqual(l, got, false) {
		t.Fatal("events did not round-trip")
	}
	if got.Header.Scenario != "sample" || got.Header.Seed != 42 {
		t.Fatalf("header did not round-trip: %+v", got.Header)
	}
	if got.Header.Params["rows"] != 100 {
		t.Fatal("params did not round-trip")
	}
	if got.SiteName(1) != "a.load" || got.SiteName(2) != "b.store" {
		t.Fatal("site table did not round-trip")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("Decode accepted garbage")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Fatal("Decode accepted empty input")
	}
	// Valid magic, bad version.
	if _, err := Decode(bytes.NewReader([]byte{'D', 'D', 'T', 'L', 99})); err == nil {
		t.Fatal("Decode accepted bad version")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if _, err := Encode(&buf, l); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 10, len(full) / 2, len(full) - 1} {
		if _, err := Decode(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("Decode accepted truncation at %d bytes", cut)
		}
	}
}

func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Nil
	case 1:
		return Int(r.Int63() - r.Int63())
	case 2:
		return Bool(r.Intn(2) == 0)
	case 3:
		b := make([]byte, r.Intn(20))
		r.Read(b)
		return Str(string(b))
	default:
		b := make([]byte, r.Intn(64))
		r.Read(b)
		return Blob(string(b))
	}
}

func randomLog(r *rand.Rand) *Log {
	l := NewLog(Header{Scenario: "q", Model: "m", Seed: r.Int63()})
	nSites := 1 + r.Intn(8)
	sites := make([]SiteID, nSites)
	for i := range sites {
		sites[i] = l.Sites.Register(string(rune('a' + i)))
	}
	n := r.Intn(200)
	var seq, tm uint64
	for i := 0; i < n; i++ {
		seq += uint64(1 + r.Intn(3))
		tm += uint64(r.Intn(100))
		l.Append(Event{
			Seq:   seq,
			Time:  tm,
			TID:   ThreadID(r.Intn(6)),
			Kind:  EventKind(1 + r.Intn(int(kindCount)-1)),
			Site:  sites[r.Intn(nSites)],
			Obj:   ObjID(r.Intn(1000)),
			Val:   randomValue(r),
			Taint: Taint(r.Intn(8)),
		})
	}
	return l
}

func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := randomLog(r)
		var buf bytes.Buffer
		if _, err := Encode(&buf, l); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return EventsEqual(l, got, false)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickValueEqualReflexiveSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomValue(r), randomValue(r)
		if !a.Equal(a) {
			return false
		}
		return a.Equal(b) == b.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogProjections(t *testing.T) {
	l := sampleLog()
	if term, ok := l.Terminal(); !ok || term.Kind != EvFail {
		t.Fatalf("Terminal = %v/%v, want fail", term, ok)
	}
	outs := l.Outputs()
	if len(outs[0]) != 1 || outs[0][0].AsString() != "done" {
		t.Fatalf("Outputs = %v", outs)
	}
	sched := l.Schedule()
	want := []ThreadID{0, 1, 1, 0, 1, 0}
	for i := range want {
		if sched[i] != want[i] {
			t.Fatalf("Schedule[%d] = %d, want %d", i, sched[i], want[i])
		}
	}
	threads := l.Threads()
	if len(threads) != 2 || threads[0] != 0 || threads[1] != 1 {
		t.Fatalf("Threads = %v", threads)
	}
	if l.Duration() != 90 {
		t.Fatalf("Duration = %d, want 90", l.Duration())
	}
	byT := l.ByThread()
	if len(byT[1]) != 3 {
		t.Fatalf("thread 1 has %d events, want 3", len(byT[1]))
	}
}

func TestOutputsEqual(t *testing.T) {
	a, b := sampleLog(), sampleLog()
	if !OutputsEqual(a, b) {
		t.Fatal("identical logs reported unequal outputs")
	}
	b.Events[3].Val = Str("different")
	if OutputsEqual(a, b) {
		t.Fatal("different outputs reported equal")
	}
}

func TestValueAccessors(t *testing.T) {
	if Int(7).AsInt() != 7 || !Bool(true).AsBool() || Str("x").AsString() != "x" {
		t.Fatal("basic accessors broken")
	}
	if Bool(true).AsInt() != 1 {
		t.Fatal("bool coercion broken")
	}
	if !Nil.IsNil() || Int(0).IsNil() {
		t.Fatal("IsNil broken")
	}
	if Int(5).Equal(Bool(true)) {
		t.Fatal("cross-kind equality must be false")
	}
	if Str("42").AsInt() != 0 {
		t.Fatal("string AsInt must be 0")
	}
	if Blob("hi").AsString() != "hi" {
		t.Fatal("bytes AsString broken")
	}
	if Int(123).Size() != 8 || Str("abc").Size() != 3 || Nil.Size() != 0 {
		t.Fatal("Size broken")
	}
}

func TestJSONExportDoesNotError(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sampleLog()); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"scenario": "sample"`)) {
		t.Fatal("JSON export missing scenario")
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"a.load"`)) {
		t.Fatal("JSON export missing resolved site name")
	}
}

func TestSiteTable(t *testing.T) {
	tab := NewSiteTable()
	a := tab.Register("x")
	b := tab.Register("y")
	if a == b || a == NoSite || b == NoSite {
		t.Fatal("IDs must be distinct and nonzero")
	}
	if again := tab.Register("x"); again != a {
		t.Fatal("re-registration must be idempotent")
	}
	if id, ok := tab.Lookup("y"); !ok || id != b {
		t.Fatal("Lookup broken")
	}
	if _, ok := tab.Lookup("zzz"); ok {
		t.Fatal("Lookup found unregistered site")
	}
	c := tab.Clone()
	c.Register("z")
	if _, ok := tab.Lookup("z"); ok {
		t.Fatal("Clone is not independent")
	}
}

// hostileCount returns an encoding of an empty log whose event count —
// the final byte, 0 — is replaced by a claim of 2^30 events.
func hostileCount(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Encode(&buf, NewLog(Header{Scenario: "x"})); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if data[len(data)-1] != 0 {
		t.Fatalf("an empty log should end with its zero event count, ends with %#x", data[len(data)-1])
	}
	return binary.AppendUvarint(data[:len(data)-1:len(data)-1], 1<<30)
}

// totalAlloc returns the bytes f allocates.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeBoundsReservationByInput: a ~20-byte file claiming 2^30 events
// used to reserve ~100 GiB before reading one. With the input size known
// the count is rejected outright; with it unknown (a bare io.Reader) the
// decoder reserves nothing and fails at the missing first event.
func TestDecodeBoundsReservationByInput(t *testing.T) {
	data := hostileCount(t)
	for name, open := range map[string]func() io.Reader{
		"sized":   func() io.Reader { return bytes.NewReader(data) },
		"unsized": func() io.Reader { return struct{ io.Reader }{bytes.NewReader(data)} },
	} {
		var err error
		alloc := totalAlloc(func() { _, err = Decode(open()) })
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v, want ErrCorrupt", name, err)
		}
		if alloc >= 1<<20 {
			t.Errorf("%s: a %d-byte file made Decode allocate %d bytes", name, len(data), alloc)
		}
	}
}

// TestDecodeRejectsWideObjID: an object ID is 32 bits wide. Written as a
// raw uvarint of 2^32 or more it makes the log corrupt, never an event
// naming a truncated object.
func TestDecodeRejectsWideObjID(t *testing.T) {
	l := NewLog(Header{Scenario: "x"})
	l.Append(Event{Kind: EvInput, Obj: math.MaxUint32, Val: Int(1)})
	var buf bytes.Buffer
	if _, err := Encode(&buf, l); err != nil {
		t.Fatal(err)
	}
	if got, err := Decode(bytes.NewReader(buf.Bytes())); err != nil || got.Events[0].Obj != math.MaxUint32 {
		t.Fatalf("object 2^32-1 did not round-trip: %v, %v", err, got)
	}
	widest := binary.AppendUvarint(nil, math.MaxUint32)
	if n := bytes.Count(buf.Bytes(), widest); n != 1 {
		t.Fatalf("the log holds the uvarint of 2^32-1 %d times, want once", n)
	}
	for _, obj := range []uint64{1 << 32, 1 << 40, math.MaxUint64} {
		data := bytes.Replace(buf.Bytes(), widest, binary.AppendUvarint(nil, obj), 1)
		if _, err := Decode(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("object %d: error %v, want ErrCorrupt", obj, err)
		}
	}
}

// TestDecodeRejectsWideThreadAndSite: an event's thread is an int32 and
// its site 32 bits wide. Written as raw varints outside those ranges they
// make the log corrupt, never an event naming a truncated thread or site
// (site 2^32+5 used to decode as site 5). The same holds for a schedule
// entry's thread.
func TestDecodeRejectsWideThreadAndSite(t *testing.T) {
	l := NewLog(Header{Scenario: "x"})
	l.Append(Event{TID: math.MaxInt32, Kind: EvYield, Site: math.MaxUint32})
	var buf bytes.Buffer
	if _, err := Encode(&buf, l); err != nil {
		t.Fatal(err)
	}
	if got, err := Decode(bytes.NewReader(buf.Bytes())); err != nil || got.Events[0].TID != math.MaxInt32 || got.Events[0].Site != math.MaxUint32 {
		t.Fatalf("thread 2^31-1 and site 2^32-1 did not round-trip: %v, %v", err, got)
	}
	thread, site := binary.AppendVarint(nil, math.MaxInt32), binary.AppendUvarint(nil, math.MaxUint32)
	for _, field := range [][]byte{thread, site} {
		if n := bytes.Count(buf.Bytes(), field); n != 1 {
			t.Fatalf("the log holds % x %d times, want once", field, n)
		}
	}
	for _, row := range []struct {
		name     string
		old, raw []byte
		want     string
	}{
		{"site 2^32", site, binary.AppendUvarint(nil, 1<<32), "event 0: site 4294967296 out of range"},
		{"site 2^32+5", site, binary.AppendUvarint(nil, 1<<32+5), "event 0: site 4294967301 out of range"},
		{"thread 2^31", thread, binary.AppendVarint(nil, 1<<31), "event 0: thread 2147483648 out of range"},
		{"thread -2^31-1", thread, binary.AppendVarint(nil, -(1<<31)-1), "event 0: thread -2147483649 out of range"},
	} {
		data := bytes.Replace(buf.Bytes(), row.old, row.raw, 1)
		if _, err := Decode(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: error %v, want ErrCorrupt saying %q", row.name, err, row.want)
		}
	}

	var sched bytes.Buffer
	w := wire.NewWriter(&sched)
	WriteSched(w, []ThreadID{0, math.MaxInt32})
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(sched.Bytes(), thread); n != 1 {
		t.Fatalf("the schedule holds % x %d times, want once", thread, n)
	}
	for _, tid := range []int64{1 << 31, -(1 << 31) - 1} {
		r := wire.NewReader(bytes.NewReader(bytes.Replace(sched.Bytes(), thread, binary.AppendVarint(nil, tid), 1)), ErrCorrupt)
		if got, _ := ReadSched(r); got != nil || !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("schedule thread %d: read %v, error %v, want ErrCorrupt", tid, got, r.Err())
		}
	}
}

// TestDecodeReservesHonestCountExactly: an honest log's events land in one
// allocation of exactly their number, from a sized reader; from an unsized
// one they still all arrive.
func TestDecodeReservesHonestCountExactly(t *testing.T) {
	l := randomLog(rand.New(rand.NewSource(5)))
	for len(l.Events) < 3*growDoubleFrom {
		l.Events = append(l.Events, l.Events...)
	}
	for i := range l.Events {
		l.Events[i].Seq, l.Events[i].Time = uint64(i), uint64(i)
	}
	var buf bytes.Buffer
	if _, err := Encode(&buf, l); err != nil {
		t.Fatal(err)
	}
	sized, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(sized.Events) != len(l.Events) || cap(sized.Events) != len(l.Events) {
		t.Fatalf("decoded %d events into capacity %d, want exactly %d", len(sized.Events), cap(sized.Events), len(l.Events))
	}
	unsized, err := Decode(struct{ io.Reader }{bytes.NewReader(buf.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	if !EventsEqual(sized, unsized, false) || !EventsEqual(l, sized, false) {
		t.Fatal("sized and unsized decodes differ")
	}
}

// perWord returns the size a layout pin expects: w64 on a 64-bit platform
// and w32 on a 32-bit one, where words and pointers are half as wide.
func perWord(w64, w32 uintptr) uintptr {
	if unsafe.Sizeof(uintptr(0)) == 4 {
		return w32
	}
	return w64
}

// TestEventLayout pins an event's size: its fields are ordered so that it
// carries no padding (see Event), and every trace and full recording holds
// one per event.
func TestEventLayout(t *testing.T) {
	if got, want := unsafe.Sizeof(Event{}), perWord(64, 52); got != want {
		t.Fatalf("sizeof(Event) = %d, want %d: reorder the fields so a new one packs", got, want)
	}
}

// TestValueLayout pins a value's size: a kind, an integer and one string
// header, whose bytes serve both VString and VBytes. Every event, feed
// entry, stream history and cell holds one.
func TestValueLayout(t *testing.T) {
	if got, want := unsafe.Sizeof(Value{}), perWord(32, 20); got != want {
		t.Fatalf("sizeof(Value) = %d, want %d: a payload needs no header of its own", got, want)
	}
}

// TestBlobIsNotAString: a blob and a string with the same bytes differ by
// kind alone, and each keeps its kind through the binary codec and the
// JSON export.
func TestBlobIsNotAString(t *testing.T) {
	str, blob := Str("ab"), Blob("ab")
	if str.Equal(blob) || blob.Equal(str) || !blob.Equal(Blob("ab")) {
		t.Fatal("a blob and a string with equal bytes compare equal")
	}
	for _, v := range []Value{str, blob} {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		WriteValue(w, v)
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(&buf, ErrCorrupt)
		if got := ReadValue(r); r.Err() != nil || got.Kind != v.Kind || !got.Equal(v) {
			t.Fatalf("%v read back as %v (kind %d, err %v)", v, got, got.Kind, r.Err())
		}
	}

	l := NewLog(Header{Scenario: "kinds"})
	l.Append(Event{Kind: EvOutput, Site: NoSite, Val: str})
	l.Append(Event{Kind: EvOutput, Site: NoSite, Val: blob})
	var buf bytes.Buffer
	if err := WriteJSON(&buf, l); err != nil {
		t.Fatal(err)
	}
	var jl jsonLog
	if err := json.Unmarshal(buf.Bytes(), &jl); err != nil {
		t.Fatal(err)
	}
	for i, je := range jl.Events {
		kind := VString
		if je.Blob {
			kind = VBytes
		}
		if got := (Value{Kind: kind, Str: je.Val.(string)}); !got.Equal(l.Events[i].Val) {
			t.Fatalf("event %d exported as %s, reads back as %v, want %v", i, buf.Bytes(), got, l.Events[i].Val)
		}
	}
}
