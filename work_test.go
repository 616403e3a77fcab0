package debugdet_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"debugdet"
	"debugdet/internal/record"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// workLedger is the exact work ledger: one line per corpus scenario and
// determinism model, evaluated at the scenario's default seed and the
// default budget. Every count on a line depends only on the code, never
// on the host, so the file gates at zero tolerance.
const workLedger = "testdata/work.golden"

// TestWorkLedger pins what each corpus cell's evaluation executes: whether
// the replay was accepted, its candidate attempts, the events and virtual
// cycles of work the replay executed, the original run's events, the
// recording's log bytes, its full events and schedule entries, the bytes
// its .ddrc file holds and how many of them are header (neither log nor
// checkpoints), the original run's scheduling rounds and hand-offs, and its
// virtual cycles and the recording cycles charged to it. A change that
// moves a count on purpose shows it as this file's diff; regenerate with
// `go test -run TestWorkLedger -update .`.
//
// On every line the log bytes are one count: those Load measures in the
// saved file are those the recorder charged, and the recording cycles are
// exactly RecordEventCycles per full event and snapshot plus
// RecordByteCycles per log and checkpoint byte.
func TestWorkLedger(t *testing.T) {
	ctx := context.Background()
	eng := debugdet.New()
	cost := vm.DefaultCostModel()
	var b strings.Builder
	b.WriteString("# scenario model ok attempts worksteps workcycles events logbytes full sched ddrc header rounds handoffs cycles recordcycles\n")
	for _, s := range workload.All() {
		for _, model := range record.AllModels() {
			ev, err := eng.Evaluate(ctx, s, model, debugdet.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", s.Name, model, err)
			}
			var file bytes.Buffer
			if err := debugdet.SaveRecording(&file, ev.Recording); err != nil {
				t.Fatalf("%s/%s: save: %v", s.Name, model, err)
			}
			r, rec, orig := ev.Replay, ev.Recording, ev.Orig.Result
			loaded, err := debugdet.LoadRecording(bytes.NewReader(file.Bytes()))
			if err != nil {
				t.Fatalf("%s/%s: load: %v", s.Name, model, err)
			}
			if loaded.LogBytes != rec.LogBytes {
				t.Errorf("%s/%s: the file holds %d log bytes, the recorder charged %d", s.Name, model, loaded.LogBytes, rec.LogBytes)
			}
			priced := cost.RecordEventCycles*uint64(len(rec.Full)+len(rec.Checkpoints)) +
				cost.RecordByteCycles*uint64(rec.LogBytes+rec.CheckpointBytes)
			if orig.RecordCycles != priced {
				t.Errorf("%s/%s: %d recording cycles charged, the recording prices at %d", s.Name, model, orig.RecordCycles, priced)
			}
			header := int64(file.Len()) - rec.LogBytes - rec.CheckpointBytes
			fmt.Fprintf(&b, "%s %s %v %d %d %d %d %d %d %d %d %d %d %d %d %d\n", s.Name, model,
				r.Ok, r.Attempts, r.WorkSteps, r.WorkCycles, orig.Steps, ev.LogBytes,
				len(rec.Full), len(rec.Sched), file.Len(), header, orig.SchedRounds, orig.SchedHandoffs,
				orig.Cycles, orig.RecordCycles)
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(workLedger, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(workLedger)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\ngot  %s\nwant %s", i+1, g, w)
			}
		}
	}
}
