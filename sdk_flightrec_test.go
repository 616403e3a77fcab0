package debugdet_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"debugdet"
)

// TestPublicFlightRecorder drives the always-on recording surface end to
// end through the SDK only: stream a run into a spill directory, reopen
// it with OpenSegmentStore, then seek, validate and debug against the
// store — the workflow the README quick-start documents.
func TestPublicFlightRecorder(t *testing.T) {
	eng := debugdet.New()
	s, err := eng.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "spill")
	res, err := eng.RecordStreaming(context.Background(), s, debugdet.Options{
		FlightRecorder: &debugdet.FlightRecorderOptions{
			Interval: 64,
			SpillDir: dir,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 || res.Segments < 2 || res.Spilled == 0 {
		t.Fatalf("streaming recording did not rotate: %d events, %d segments, %d spilled",
			res.Events, res.Segments, res.Spilled)
	}

	st, err := debugdet.OpenSegmentStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Finalized() || st.Meta().Scenario != "bank" || st.Meta().EventCount != res.Events {
		t.Fatalf("reopened store identity: finalized=%v scenario=%q events=%d",
			st.Finalized(), st.Meta().Scenario, st.Meta().EventCount)
	}

	target := res.Events / 2
	sess, err := eng.SeekStore(context.Background(), s, st, target, debugdet.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Pos() != target || !sess.FromCheckpoint {
		t.Fatalf("store seek: pos=%d (want %d) fromCkpt=%v", sess.Pos(), target, sess.FromCheckpoint)
	}
	if _, ok := sess.RunToEnd(); !ok {
		t.Fatal("store seek replay did not reproduce the run")
	}

	sres, err := eng.ReplaySegmentedStore(context.Background(), s, st, debugdet.ReplayOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sres.Ok {
		t.Fatalf("segmented store replay diverged at %d", sres.Mismatch)
	}

	d, err := eng.Debug(context.Background(), s, st, debugdet.DebugOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.SeekTo(target); err != nil {
		t.Fatal(err)
	}
	if err := d.Back(3); err != nil {
		t.Fatal(err)
	}
	if d.Pos() != target-3 {
		t.Fatalf("debug cursor at %d, want %d", d.Pos(), target-3)
	}
}

// TestPublicOptionValidation pins the Options contract: a negative
// CheckpointInterval or Retention is rejected with a clear error
// everywhere options flow, and streaming recording requires
// a spill directory.
func TestPublicOptionValidation(t *testing.T) {
	eng := debugdet.New()
	s, err := eng.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = eng.Record(context.Background(), s, debugdet.Perfect, debugdet.Options{CheckpointInterval: -1})
	if err == nil || !strings.Contains(err.Error(), "CheckpointInterval") {
		t.Fatalf("negative interval on Record: err = %v", err)
	}
	_, err = eng.RecordStreaming(context.Background(), s, debugdet.Options{
		CheckpointInterval: -1,
		FlightRecorder:     &debugdet.FlightRecorderOptions{SpillDir: t.TempDir()},
	})
	if err == nil || !strings.Contains(err.Error(), "CheckpointInterval") {
		t.Fatalf("negative interval on RecordStreaming: err = %v", err)
	}
	_, err = eng.RecordStreaming(context.Background(), s, debugdet.Options{})
	if err == nil || !strings.Contains(err.Error(), "SpillDir") {
		t.Fatalf("missing spill dir: err = %v", err)
	}
	// A negative retention is rejected before any file is created, both
	// through the engine and at the recorder layer: it would evict
	// everything.
	for _, tc := range []struct {
		name string
		fo   debugdet.FlightRecorderOptions
	}{
		{"Retention", debugdet.FlightRecorderOptions{SpillDir: t.TempDir(), Retention: -2}},
	} {
		fo := tc.fo
		_, err = eng.RecordStreaming(context.Background(), s, debugdet.Options{FlightRecorder: &fo})
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("negative %s on RecordStreaming: err = %v", tc.name, err)
		}
		if entries, dirErr := os.ReadDir(fo.SpillDir); dirErr != nil || len(entries) != 0 {
			t.Fatalf("rejected options still touched spill dir %s: %v %v", fo.SpillDir, entries, dirErr)
		}
		// Record ignores FlightRecorder but still validates it, so a bad
		// value surfaces even on the non-streaming path.
		_, _, err = eng.Record(context.Background(), s, debugdet.Perfect, debugdet.Options{FlightRecorder: &fo})
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Fatalf("negative %s on Record: err = %v", tc.name, err)
		}
	}
}
