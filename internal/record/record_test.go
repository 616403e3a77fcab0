package record

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"debugdet/internal/checkpoint"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
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

// TestStockPolicyLevels pins which events each stock policy persists in
// full, and that none of them keeps a schedule.
func TestStockPolicyLevels(t *testing.T) {
	cases := []struct {
		model Model
		kind  trace.EventKind
		full  bool
	}{
		{Perfect, trace.EvLoad, true},
		{Perfect, trace.EvLock, true},
		{Perfect, trace.EvYield, true},
		{Value, trace.EvLoad, true},
		{Value, trace.EvStore, true},
		{Value, trace.EvInput, true},
		{Value, trace.EvLock, false},
		{Value, trace.EvYield, false},
		{Value, trace.EvFail, true},
		{Output, trace.EvOutput, true},
		{Output, trace.EvInput, false},
		{Output, trace.EvLoad, false},
		{Output, trace.EvCrash, true},
		{Failure, trace.EvOutput, false},
		{Failure, trace.EvFail, false},
	}
	for _, c := range cases {
		p := PolicyFor(c.model)
		if p == nil {
			t.Fatalf("no stock policy for %v", c.model)
		}
		if p.Sched {
			t.Errorf("%v policy keeps a schedule", c.model)
		}
		e := trace.Event{Kind: c.kind}
		if got := p.Full(&e); got != c.full {
			t.Errorf("%v policy full(%v) = %v, want %v", c.model, c.kind, got, c.full)
		}
	}
	if PolicyFor(DebugRCSE) != nil {
		t.Fatal("DebugRCSE must have no stock policy")
	}
}

// TestPolicy pins that the RCSE policy keeps the schedule and records the
// inputs of the named streams in full, including a stream the program
// registers only after the policy was built, and every other event as its
// schedule entry only.
func TestPolicy(t *testing.T) {
	m := vm.New(vm.Config{Seed: 1})
	data := m.Stream("data")
	p := RCSEPolicy(m, []string{"ctl", "late"})
	if p.Name != "rcse" || !p.Sched {
		t.Fatalf("policy %q keeps schedule %v, want rcse keeping it", p.Name, p.Sched)
	}
	ctl := m.Stream("ctl")
	late := m.Stream("late") // registered after the build, as a thread body would
	for _, id := range []trace.ObjID{ctl, late, ctl} {
		e := trace.Event{Kind: trace.EvInput, Obj: id}
		if !p.Full(&e) {
			t.Fatalf("input of control stream %q not recorded", m.StreamName(id))
		}
	}
	in := trace.Event{Kind: trace.EvInput, Obj: data}
	if p.Full(&in) {
		t.Fatal("data stream input recorded in full")
	}
	store := trace.Event{Kind: trace.EvStore, Obj: ctl}
	if p.Full(&store) {
		t.Fatal("non-input event on the stream's object recorded in full")
	}
}

// TestPolicyFloorIsSchedule pins the RCSE policy of a scenario that
// declares no control streams: every event, input included, is kept as its
// schedule entry only.
func TestPolicyFloorIsSchedule(t *testing.T) {
	m := vm.New(vm.Config{Seed: 1})
	p := RCSEPolicy(m, nil)
	for _, e := range []trace.Event{{Kind: trace.EvStore}, {Kind: trace.EvInput, Obj: m.Stream("any")}} {
		if p.Full(&e) || !p.Sched {
			t.Fatalf("%v event recorded in full or without its schedule entry", e.Kind)
		}
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
	full := rec.fullOf(&trace.Log{Events: []trace.Event{e}})
	if rec.Bytes() == 0 || rec.events != 1 || len(full) != 1 {
		t.Fatalf("accounting: bytes=%d events=%d full=%d", rec.Bytes(), rec.events, len(full))
	}
	if rec.schedBytes != 0 {
		t.Fatalf("perfect recorder charged %d schedule bytes", rec.schedBytes)
	}

	rec2 := NewRecorder(m, PolicyFor(Failure))
	if cost := rec2.OnEvent(&e); cost != 0 || rec2.Bytes() != 0 {
		t.Fatalf("failure recorder charged %d cycles for %d bytes", cost, rec2.Bytes())
	}
}

func TestSchedLevelCheaperThanFull(t *testing.T) {
	m := vm.New(vm.Config{})
	sched := NewRecorder(m, &Policy{Name: "s", Sched: true, Full: func(*trace.Event) bool { return false }})
	full := NewRecorder(m, &Policy{Name: "f", Sched: true, Full: func(*trace.Event) bool { return true }})
	e := trace.Event{Kind: trace.EvSend, Val: trace.Blob(strings.Repeat("\x00", 100))}
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
	// A perfect recording stores no schedule: it is the threads of Full,
	// derived once per recording.
	sched, _ := rec.SchedFrom(0)
	if rec.Sched != nil || len(sched) != int(rec.EventCount) {
		t.Fatalf("schedule: %d stored, %d derived, %d events", len(rec.Sched), len(sched), rec.EventCount)
	}
	for i, e := range rec.Full {
		if sched[i] != e.TID {
			t.Fatalf("schedule entry %d is thread %d, event %d ran on %d", i, sched[i], i, e.TID)
		}
	}
	if again, _ := rec.SchedFrom(1); &again[0] != &sched[1] {
		t.Fatal("a second SchedFrom derived the schedule again")
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
	if got.LogBytes != rec.LogBytes ||
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

// TestLoadFailuresAreTyped: whatever is wrong with a file — its version,
// its model byte or flags, an event, a count, its stream table, events or
// a schedule its model does not have — Load says so with an error that
// wraps ErrBadRecording. Versions 1 (before checkpoints), 2 (a nested log
// with decimal labels), 3 (every snapshot naming every thread and stream),
// 4 (a stored log byte count) and 5 (a schedule under any model, and a
// flag saying whether it was whole) are no longer read.
func TestLoadFailuresAreTyped(t *testing.T) {
	file := func(r *Recording) []byte {
		var buf bytes.Buffer
		if err := r.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	input := trace.Event{Kind: trace.EvInput, Obj: 1, Val: trace.Int(3)}
	good := file(&Recording{Model: Value, Streams: []string{"", "in"}, Full: []trace.Event{input}})
	if rec, err := Load(bytes.NewReader(good)); err != nil || rec.LogBytes != int64(trace.EventSize(nil, &input)) ||
		rec.StreamName(1) != "in" {
		t.Fatalf("hand-built recording: %v", err)
	}
	patch := func(data []byte, at int, b byte) []byte {
		data = append([]byte(nil), data...)
		data[at] = b
		return data
	}
	// An empty recording ends: stream count 0, event count 0, schedule
	// count 0, then the five-byte empty snapshot section.
	empty := file(&Recording{})
	// good's flags follow the magic, the version, an empty scenario name,
	// the model, a zero seed and an empty parameter map.
	flagsAt := len(recMagic) + 5
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"version 1", patch(good, len(recMagic), 1), "unsupported version 1"},
		{"version 2", patch(good, len(recMagic), 2), "unsupported version 2"},
		{"version 3", patch(good, len(recMagic), 3), "unsupported version 3"},
		{"version 4", patch(good, len(recMagic), 4), "unsupported version 4"},
		{"version 5", patch(good, len(recMagic), 5), "unsupported version 5"},
		{"unknown model", file(&Recording{Model: 9}), "unknown model 9"},
		{"flag bit 1", patch(good, flagsAt, 2), "unknown flags 0x2"},
		{"bad event kind", file(&Recording{Full: []trace.Event{{Kind: 200}}}), "bad event kind 200"},
		{"stream count", patch(empty, len(empty)-8, 100), "100 streams"},
		{"unnamed referenced stream", file(&Recording{Streams: []string{"in"}, Full: []trace.Event{input}}),
			"event 0 (input) references stream 1"},
		{"perfect short of events", file(&Recording{Model: Perfect, EventCount: 2, Full: []trace.Event{{Kind: trace.EvYield}}}),
			"perfect recording holds 1 of the run's 2 events"},
		{"rcse short of schedule", file(&Recording{Model: DebugRCSE, EventCount: 2, Sched: []trace.ThreadID{1}}),
			"debug-rcse schedule holds 1 of the run's 2 events"},
		{"schedule under value", file(&Recording{Model: Value, Sched: []trace.ThreadID{1}}),
			"value recording holds 1 schedule entries"},
	}
	for _, tc := range cases {
		_, err := Load(bytes.NewReader(tc.data))
		if !errors.Is(err, ErrBadRecording) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want ErrBadRecording mentioning %q", tc.name, err, tc.want)
		}
	}
}

// namedSnap is a hand-built snapshot whose thread and stream tables hold
// only names.
func namedSnap(threads, streams []string) *vm.Snapshot {
	s := &vm.Snapshot{}
	for _, n := range threads {
		s.Threads = append(s.Threads, vm.ThreadSnap{Name: n})
	}
	for _, n := range streams {
		s.Streams = append(s.Streams, vm.StreamSnap{Name: n})
	}
	return s
}

// TestSaveRefusesRenamedCheckpoints: a snapshot section writes a name only
// where the predecessor has no entry, so a checkpoint table that renames a
// thread or stream its predecessor has cannot be saved without loss. Save
// refuses it with a typed error and writes nothing.
func TestSaveRefusesRenamedCheckpoints(t *testing.T) {
	cases := map[string][]*vm.Snapshot{
		"thread": {namedSnap([]string{"main", "a"}, nil), namedSnap([]string{"main", "b", "c"}, nil)},
		"stream": {namedSnap(nil, []string{"in"}), namedSnap(nil, []string{"in"}), namedSnap(nil, []string{"out", "x"})},
	}
	for name, snaps := range cases {
		var buf bytes.Buffer
		err := (&Recording{Model: Perfect, Checkpoints: snaps}).Save(&buf)
		if !errors.Is(err, checkpoint.ErrRenamed) || !strings.Contains(err.Error(), name) {
			t.Errorf("%s renamed: error %v, want checkpoint.ErrRenamed naming a %s", name, err, name)
		}
		if buf.Len() != 0 {
			t.Errorf("%s renamed: Save wrote %d bytes", name, buf.Len())
		}
	}
}

// TestCheckpointTablesShrinkAndGrow: a snapshot inherits names only up to
// its predecessor's count, so a table that shrinks and grows again writes
// the regrown entries' names afresh, and they load as written.
func TestCheckpointTablesShrinkAndGrow(t *testing.T) {
	rec := &Recording{Model: Perfect, Checkpoints: []*vm.Snapshot{
		namedSnap([]string{"main", "a", "b"}, []string{"in", "out"}),
		namedSnap([]string{"main"}, nil),
		namedSnap([]string{"main", "c", "d", "e"}, []string{"log", "out"}),
		namedSnap([]string{"main", "c", "d", "e"}, []string{"log", "out", "net"}),
	}}
	var first bytes.Buffer
	if err := rec.Save(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	names := func(s *vm.Snapshot) (out []string) {
		for _, th := range s.Threads {
			out = append(out, th.Name)
		}
		out = append(out, "|")
		for _, st := range s.Streams {
			out = append(out, st.Name)
		}
		return out
	}
	for i, want := range rec.Checkpoints {
		if err := loaded.Checkpoints[i].EqualState(want); err != nil {
			t.Errorf("checkpoint %d: %v", i, err)
		}
		if got, want := names(loaded.Checkpoints[i]), names(want); !slices.Equal(got, want) {
			t.Errorf("checkpoint %d names %v, saved %v", i, got, want)
		}
	}
	var second bytes.Buffer
	if err := loaded.Save(&second); err != nil || !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("Save -> Load -> Save wrote %d bytes, first %d (error %v)", second.Len(), first.Len(), err)
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

// TestCheckpointSaveLoadRoundTrip pins the persistence of checkpoints:
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

// TestSnapshotNamesWrittenOnce: a recording's snapshot section writes each
// thread and stream name once, in the first snapshot that has the entry,
// and what the capture charged is what the section holds: a live writer's
// Bytes, the projection's CheckpointBytes and the section body agree to
// the byte. A section of one snapshot is the snapshot standalone, as a
// flight-recorder segment stores it.
func TestSnapshotNamesWrittenOnce(t *testing.T) {
	s, err := workload.ByName("dynokv-staleread")
	if err != nil {
		t.Fatal(err)
	}
	const interval = 32
	var live *checkpoint.Writer
	s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed, ObserverFactory: func(m *vm.Machine) []vm.Observer {
		live = checkpoint.NewWriter(m, interval)
		return []vm.Observer{NewRecorder(m, PolicyFor(Perfect)), live}
	}})
	run, w := Run(s, s.DefaultSeed, nil, 0, interval)
	rec, _ := Project(s, run, w, Perfect, PolicyFor(Perfect))
	snaps := rec.Checkpoints
	if len(snaps) < 10 {
		t.Fatalf("%d checkpoints, want a long section", len(snaps))
	}

	var file, section bytes.Buffer
	if err := rec.Save(&file); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.EncodeSnapshots(&section, snaps); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(file.Bytes(), section.Bytes()) {
		t.Fatal("the saved file does not end with the snapshot section")
	}
	header := len("DDCP") + len(binary.AppendUvarint(nil, uint64(len(snaps))))
	body := section.Bytes()[header:]
	loaded, err := Load(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if live.Bytes() != rec.CheckpointBytes || rec.CheckpointBytes != int64(len(body)) || loaded.CheckpointBytes != rec.CheckpointBytes {
		t.Errorf("live writer %d B, projection %d B, section body %d B, loaded %d B: want all equal",
			live.Bytes(), rec.CheckpointBytes, len(body), loaded.CheckpointBytes)
	}

	// Blank every name: the section shrinks by each entry's name once, the
	// length bytes staying (every name is under 128 bytes).
	names := 0
	blank := make([]*vm.Snapshot, len(snaps))
	for i, sn := range snaps {
		b := *sn
		b.Threads, b.Streams = slices.Clone(sn.Threads), slices.Clone(sn.Streams)
		for j := range b.Threads {
			b.Threads[j].Name = ""
		}
		for j := range b.Streams {
			b.Streams[j].Name = ""
		}
		blank[i] = &b
	}
	// Thread and stream IDs are dense and append-only: the last snapshot
	// has every entry.
	last := snaps[len(snaps)-1]
	for _, th := range last.Threads {
		names += len(th.Name)
	}
	for _, st := range last.Streams {
		names += len(st.Name)
	}
	if len(last.Threads) < 5 || len(last.Streams) < 5 {
		t.Fatalf("%d threads and %d streams: want a run with many of each", len(last.Threads), len(last.Streams))
	}
	var blanked bytes.Buffer
	if _, err := checkpoint.EncodeSnapshots(&blanked, blank); err != nil {
		t.Fatal(err)
	}
	if got := section.Len() - blanked.Len(); got != names {
		t.Errorf("names take %d B of the section, want %d: each name once", got, names)
	}

	for i, sn := range snaps {
		var one bytes.Buffer
		if _, err := checkpoint.EncodeSnapshots(&one, []*vm.Snapshot{sn}); err != nil {
			t.Fatal(err)
		}
		if n := int64(one.Len() - len("DDCP\x01")); n != checkpoint.SnapshotSize(nil, sn) {
			t.Errorf("snapshot %d alone: section body %d B, standalone size %d B", i, n, checkpoint.SnapshotSize(nil, sn))
		}
		if i == 0 && !bytes.HasPrefix(body, one.Bytes()[len("DDCP\x01"):]) {
			t.Error("the first snapshot of the section is not its standalone encoding")
		}
	}
}

// TestLoadRejectsCheckpointTruncation extends the truncation contract to
// the checkpoint section: every strict prefix errors, never panics.
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

// TestLoadBoundsReservationsByInput: a tiny .ddrc whose stream, event or
// schedule count claims 2^30 elements must fail with the typed error
// having allocated next to nothing. (Event and schedule counts used to
// reserve tens of GiB before reading one element.)
func TestLoadBoundsReservationsByInput(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Recording{Scenario: "x", Model: Perfect}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	// An empty recording ends: stream count 0, event count 0, schedule
	// count 0, then the five-byte empty snapshot section.
	data := buf.Bytes()
	tail := len(data) - 7
	if data[tail-1] != 0 || data[tail] != 0 || data[tail+1] != 0 || string(data[tail+2:tail+6]) != "DDCP" {
		t.Fatalf("unexpected empty-recording layout: % x", data[tail-1:])
	}
	huge := binary.AppendUvarint(nil, 1<<30)
	hostile := map[string][]byte{
		"streams":  append(append([]byte(nil), data[:tail-1]...), huge...),
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
