package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"debugdet/internal/checkpoint"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/wire"
	"debugdet/internal/workload"
)

func TestModelNamesRoundTrip(t *testing.T) {
	for _, m := range AllModels() {
		got, err := ParseModel(m.String())
		if err != nil {
			t.Fatalf("ParseModel(%q): %v", m.String(), err)
		}
		if got != m {
			t.Fatalf("ParseModel(%q) = %v, want %v", m.String(), got, m)
		}
	}
	if _, err := ParseModel("nonsense"); err == nil {
		t.Fatal("ParseModel accepted nonsense")
	}
}

func TestStockPolicyLevels(t *testing.T) {
	cases := []struct {
		model Model
		kind  trace.EventKind
		want  Level
	}{
		{Perfect, trace.EvLoad, LevelFull},
		{Perfect, trace.EvLock, LevelFull},
		{Perfect, trace.EvYield, LevelFull},
		{Value, trace.EvLoad, LevelFull},
		{Value, trace.EvStore, LevelFull},
		{Value, trace.EvInput, LevelFull},
		{Value, trace.EvLock, LevelSkip},
		{Value, trace.EvYield, LevelSkip},
		{Value, trace.EvFail, LevelFull},
		{Output, trace.EvOutput, LevelFull},
		{Output, trace.EvInput, LevelSkip},
		{Output, trace.EvLoad, LevelSkip},
		{Output, trace.EvCrash, LevelFull},
		{Failure, trace.EvOutput, LevelSkip},
		{Failure, trace.EvFail, LevelSkip},
	}
	for _, c := range cases {
		p := PolicyFor(c.model)
		if p == nil {
			t.Fatalf("no stock policy for %v", c.model)
		}
		e := trace.Event{Kind: c.kind}
		if got := p.Level(&e); got != c.want {
			t.Errorf("%v policy level(%v) = %v, want %v", c.model, c.kind, got, c.want)
		}
	}
	if PolicyFor(DebugRCSE) != nil {
		t.Fatal("DebugRCSE must have no stock policy")
	}
}

func TestRecorderAccounting(t *testing.T) {
	m := vm.New(vm.Config{})
	rec := NewRecorder(m, PolicyFor(Perfect))
	e := trace.Event{Kind: trace.EvStore, Val: trace.Str("hello")}
	cost := rec.OnEvent(&e)
	if cost == 0 {
		t.Fatal("full recording charged no cost")
	}
	if rec.Bytes() == 0 || rec.Events() != 1 || rec.FullCount() != 1 {
		t.Fatalf("accounting: bytes=%d events=%d full=%d", rec.Bytes(), rec.Events(), rec.FullCount())
	}
	if !rec.schedComplete {
		t.Fatal("perfect recorder lost schedule completeness")
	}

	rec2 := NewRecorder(m, PolicyFor(Failure))
	if cost := rec2.OnEvent(&e); cost != 0 {
		t.Fatalf("skip-level recording charged %d", cost)
	}
	if rec2.schedComplete {
		t.Fatal("skipping recorder still claims a complete schedule")
	}
}

func TestSchedLevelCheaperThanFull(t *testing.T) {
	m := vm.New(vm.Config{})
	sched := NewRecorder(m, PolicyFunc{N: "s", F: func(*trace.Event) Level { return LevelSched }})
	full := NewRecorder(m, PolicyFunc{N: "f", F: func(*trace.Event) Level { return LevelFull }})
	e := trace.Event{Kind: trace.EvSend, Val: trace.Bytes_(make([]byte, 100))}
	cs := sched.OnEvent(&e)
	cf := full.OnEvent(&e)
	if cs >= cf {
		t.Fatalf("sched cost %d not below full cost %d", cs, cf)
	}
	if sched.Bytes() >= full.Bytes() {
		t.Fatalf("sched bytes %d not below full bytes %d", sched.Bytes(), full.Bytes())
	}
}

func TestRecordEndToEndOnSum(t *testing.T) {
	s := workload.Sum()
	rec, view, err := Record(s, Perfect, s.DefaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Failed || rec.FailureSig != "sum:wrong-output" {
		t.Fatalf("recording failure identity: %v/%q", rec.Failed, rec.FailureSig)
	}
	if rec.EventCount != view.Result.Steps {
		t.Fatalf("event count %d != steps %d", rec.EventCount, view.Result.Steps)
	}
	if !rec.SchedComplete || len(rec.Sched) != int(rec.EventCount) {
		t.Fatalf("schedule: complete=%v len=%d events=%d", rec.SchedComplete, len(rec.Sched), rec.EventCount)
	}
	if rec.Overhead <= 1.0 {
		t.Fatalf("perfect recording overhead = %v, want > 1", rec.Overhead)
	}
	ins := rec.InputsByStream()
	if len(ins["in.a"]) != 1 || ins["in.a"][0].AsInt() != 2 {
		t.Fatalf("recorded inputs: %v", ins)
	}
	outs := rec.OutputsByStream()
	if len(outs["sum.out"]) != 1 || outs["sum.out"][0].AsInt() != 5 {
		t.Fatalf("recorded outputs: %v", outs)
	}
}

func TestOverheadOrderingAcrossModels(t *testing.T) {
	s := workload.Sum()
	get := func(m Model) float64 {
		rec, _, err := Record(s, m, s.DefaultSeed, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rec.Overhead
	}
	perfect, value, output, failure := get(Perfect), get(Value), get(Output), get(Failure)
	if !(perfect >= value && value > output && output >= failure && failure == 1.0) {
		t.Fatalf("overhead ordering violated: perfect=%v value=%v output=%v failure=%v",
			perfect, value, output, failure)
	}
}

func TestRecordingSaveLoadRoundTrip(t *testing.T) {
	s := workload.Overflow()
	rec, _, err := Record(s, Value, s.DefaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Scenario != rec.Scenario || got.Model != rec.Model || got.Seed != rec.Seed {
		t.Fatalf("identity mismatch: %s vs %s", got.Summary(), rec.Summary())
	}
	if got.Failed != rec.Failed || got.FailureSig != rec.FailureSig {
		t.Fatal("failure identity did not round-trip")
	}
	if got.SchedComplete != rec.SchedComplete || got.LogBytes != rec.LogBytes ||
		got.EventCount != rec.EventCount {
		t.Fatal("metadata did not round-trip")
	}
	if len(got.Full) != len(rec.Full) {
		t.Fatalf("full events: %d vs %d", len(got.Full), len(rec.Full))
	}
	for i := range rec.Full {
		if !got.Full[i].Val.Equal(rec.Full[i].Val) || got.Full[i].Kind != rec.Full[i].Kind {
			t.Fatalf("event %d did not round-trip", i)
		}
	}
	if len(got.Sched) != len(rec.Sched) {
		t.Fatalf("schedule: %d vs %d", len(got.Sched), len(rec.Sched))
	}
	for i := range rec.Sched {
		if got.Sched[i] != rec.Sched[i] {
			t.Fatalf("sched[%d] = %d, want %d", i, got.Sched[i], rec.Sched[i])
		}
	}
	if len(got.Streams) != len(rec.Streams) {
		t.Fatalf("streams: %v vs %v", got.Streams, rec.Streams)
	}
	if got.Params.Get("requests", -1) != rec.Params.Get("requests", -2) {
		t.Fatal("params did not round-trip")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a recording"))); err == nil {
		t.Fatal("Load accepted garbage")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("Load accepted empty input")
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	s := workload.Sum()
	rec, _, err := Record(s, Perfect, s.DefaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{3, 10, len(full) / 2} {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("Load accepted truncation at %d", cut)
		}
	}
}

// TestLoadFailuresAreTyped: whatever is wrong with a file — its version, an
// event, its model name, a numeric label — Load says so with an error that
// wraps ErrBadRecording. (Event-section errors used to escape as bare
// trace.ErrCorrupt, model errors unwrapped, and a malformed numeric label
// loaded as 0; version 1, the format before checkpoints, is no longer read.)
func TestLoadFailuresAreTyped(t *testing.T) {
	// file builds a .ddrc by hand around the given log header and events.
	file := func(h trace.Header, events ...trace.Event) []byte {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		w.Magic(recMagic)
		w.Byte(recVersion)
		l := trace.NewLog(h)
		l.Events = events
		trace.WriteLog(w, l)
		w.Uvarint(0)
		checkpoint.WriteSnapshots(w, nil)
		if _, err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	labels := func(key, val string) map[string]string {
		m := map[string]string{"log_bytes": "0", "overhead_mlli": "0", "base_cycles": "0",
			"total_cycles": "0", "event_count": "0", "ckpt_bytes": "0"}
		m[key] = val
		return m
	}
	good := file(trace.Header{Model: "perfect", Labels: labels("log_bytes", "7")})
	if rec, err := Load(bytes.NewReader(good)); err != nil || rec.LogBytes != 7 {
		t.Fatalf("hand-built recording: %v", err)
	}
	v1 := append([]byte(nil), good...)
	v1[len(recMagic)] = 1
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"version 1", v1, "unsupported version 1"},
		{"bad event kind", file(trace.Header{Model: "perfect", Labels: labels("log_bytes", "0")}, trace.Event{Kind: 200}), "bad event kind 200"},
		{"unknown model", file(trace.Header{Model: "psychic", Labels: labels("log_bytes", "0")}), "psychic"},
		{"malformed event_count", file(trace.Header{Model: "perfect", Labels: labels("event_count", "12x")}), "event_count"},
		{"missing ckpt_bytes", file(trace.Header{Model: "perfect", Labels: labels("ckpt_bytes", "")}), "ckpt_bytes"},
		{"inner log magic", bytes.Replace(good, []byte("DDTL"), []byte("DDTX"), 1), "bad magic"},
	}
	for _, tc := range cases {
		_, err := Load(bytes.NewReader(tc.data))
		if !errors.Is(err, ErrBadRecording) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want ErrBadRecording mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestRecordingIsDeterministic(t *testing.T) {
	s := workload.Bank()
	r1, _, err := Record(s, Perfect, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := Record(s, Perfect, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := r1.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r2.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("identical runs produced different serialized recordings")
	}
}

func TestEventsByThreadPreservesOrder(t *testing.T) {
	s := workload.Bank()
	rec, _, err := Record(s, Value, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	byThread := rec.EventsByThread()
	for tid, evs := range byThread {
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq <= evs[i-1].Seq {
				t.Fatalf("thread %d events out of order at %d", tid, i)
			}
		}
	}
}

// recordCheckpointedBank is the shared fixture for the format-compat
// tests: a perfect-model bank recording with checkpoints attached, the
// way core.Record builds one for Options.CheckpointInterval.
func recordCheckpointedBank(t *testing.T) *Recording {
	t.Helper()
	s, err := workload.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	run, w := Run(s, s.DefaultSeed, nil, 0, 64)
	rec, _ := Project(s, run, w, Perfect, PolicyFor(Perfect))
	return rec
}

// TestCheckpointSaveLoadRoundTrip pins the v2 persistence of checkpoints:
// snapshots survive save/load exactly, including the rehydrated stream
// histories.
func TestCheckpointSaveLoadRoundTrip(t *testing.T) {
	rec := recordCheckpointedBank(t)
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.CheckpointBytes != rec.CheckpointBytes {
		t.Errorf("checkpoint bytes %d -> %d", rec.CheckpointBytes, loaded.CheckpointBytes)
	}
	if len(loaded.Checkpoints) != len(rec.Checkpoints) {
		t.Fatalf("checkpoints %d -> %d", len(rec.Checkpoints), len(loaded.Checkpoints))
	}
	for i := range rec.Checkpoints {
		if err := loaded.Checkpoints[i].EqualState(rec.Checkpoints[i]); err != nil {
			t.Fatalf("checkpoint %d differs after round-trip: %v", i, err)
		}
	}
}

// TestLoadRejectsCheckpointTruncation extends the truncation contract to
// the v2 checkpoint section: every strict prefix errors, never panics.
func TestLoadRejectsCheckpointTruncation(t *testing.T) {
	rec := recordCheckpointedBank(t)
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded without error", cut, len(full))
		}
	}
}

// TestLoadBoundsReservationsByInput: a tiny .ddrc whose event or schedule
// count claims 2^30 elements used to reserve tens of GiB before reading
// one. It must fail with the typed error having allocated next to nothing.
func TestLoadBoundsReservationsByInput(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Recording{Scenario: "x", Model: Perfect}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	// An empty recording ends: event count 0, schedule count 0, then the
	// five-byte empty snapshot section.
	data := buf.Bytes()
	tail := len(data) - 7
	if data[tail] != 0 || data[tail+1] != 0 || string(data[tail+2:tail+6]) != "DDCP" {
		t.Fatalf("unexpected empty-recording layout: % x", data[tail:])
	}
	huge := binary.AppendUvarint(nil, 1<<30)
	hostile := map[string][]byte{
		"events":   append(append([]byte(nil), data[:tail]...), huge...),
		"schedule": append(append([]byte(nil), data[:tail+1]...), huge...),
	}
	for name, file := range hostile {
		for _, sized := range []bool{true, false} {
			var rd io.Reader = bytes.NewReader(file)
			if !sized {
				rd = struct{ io.Reader }{rd}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Load(rd)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadRecording) {
				t.Errorf("%s (sized=%v): error %v, want ErrBadRecording", name, sized, err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Errorf("%s (sized=%v): a %d-byte file made Load allocate %d bytes", name, sized, len(file), alloc)
			}
		}
	}
}

// TestLoadReservesHonestCountsExactly: an honest recording's events and
// schedule each land in one allocation of exactly their length, from a
// byte reader and from a file.
func TestLoadReservesHonestCountsExactly(t *testing.T) {
	rec := recordCheckpointedBank(t)
	var buf bytes.Buffer
	if err := rec.Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bank.ddrc")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, rd := range map[string]io.Reader{"bytes": bytes.NewReader(buf.Bytes()), "file": f} {
		got, err := Load(rd)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Full) != len(rec.Full) || cap(got.Full) != len(rec.Full) {
			t.Errorf("%s: %d events in capacity %d, want exactly %d", name, len(got.Full), cap(got.Full), len(rec.Full))
		}
		if len(got.Sched) != len(rec.Sched) || cap(got.Sched) != len(rec.Sched) {
			t.Errorf("%s: %d schedule entries in capacity %d, want exactly %d", name, len(got.Sched), cap(got.Sched), len(rec.Sched))
		}
		if len(got.Checkpoints) != len(rec.Checkpoints) {
			t.Errorf("%s: %d checkpoints, want %d", name, len(got.Checkpoints), len(rec.Checkpoints))
		}
	}
}
