package debugdet_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"debugdet"
	"debugdet/internal/checkpoint"
)

// goldenDir holds one fixed run — bank, seed 5, checkpoint interval 64 —
// as the encoders wrote it: the recording (.ddrc version 6), its bare
// snapshot section, and the spill directory of the same run
// flight-recorded. A file is rewritten only by
// a deliberate change to a format, which bumps that container's version
// byte, or to what a recorder charges, which every snapshot stores as its
// recording cycles.
const goldenDir = "testdata/golden"

func goldenFile(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenBytes: today's encoders reproduce every golden file byte for
// byte, and today's decoders load each golden file to what re-recording
// the run yields.
func TestGoldenBytes(t *testing.T) {
	ctx := context.Background()
	eng := debugdet.New()
	s, err := eng.ByName("bank")
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := eng.Record(ctx, s, debugdet.Perfect, debugdet.Options{Seed: 5, CheckpointInterval: 64})
	if err != nil {
		t.Fatal(err)
	}
	spill := filepath.Join(t.TempDir(), "spill")
	fr, err := eng.RecordStreaming(ctx, s, debugdet.Options{Seed: 5,
		FlightRecorder: &debugdet.FlightRecorderOptions{Interval: 64, SpillDir: spill}})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("ddrc", func(t *testing.T) {
		golden := goldenFile(t, "bank.ddrc")
		var buf bytes.Buffer
		if err := debugdet.SaveRecording(&buf, rec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Fatalf("Save wrote %d bytes that differ from the %d golden ones", buf.Len(), len(golden))
		}
		loaded, err := debugdet.LoadRecording(bytes.NewReader(golden))
		if err != nil {
			t.Fatal(err)
		}
		// Checkpoints are compared below as the snapshot section; the rest
		// of the recording must be equal field for field, the overhead
		// ratio to the thousandth the format stores.
		want := *rec
		want.Checkpoints, loaded.Checkpoints = nil, nil
		want.Overhead = math.Round(rec.Overhead*1000) / 1000
		if !reflect.DeepEqual(loaded, &want) {
			t.Fatalf("loaded recording differs from the re-recorded run:\ngot  %s\nwant %s", loaded.Summary(), want.Summary())
		}
	})

	t.Run("ddcp", func(t *testing.T) {
		golden := goldenFile(t, "bank.ddcp")
		var buf bytes.Buffer
		if _, err := checkpoint.EncodeSnapshots(&buf, rec.Checkpoints); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Fatalf("EncodeSnapshots wrote %d bytes that differ from the %d golden ones", buf.Len(), len(golden))
		}
		snaps, err := checkpoint.DecodeSnapshots(bufio.NewReader(bytes.NewReader(golden)))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkpoint.RehydrateStreams(snaps, rec.Full); err != nil {
			t.Fatal(err)
		}
		if len(snaps) != len(rec.Checkpoints) || len(snaps) < 3 {
			t.Fatalf("%d snapshots decoded, %d recorded", len(snaps), len(rec.Checkpoints))
		}
		for i, sn := range snaps {
			if err := sn.EqualState(rec.Checkpoints[i]); err != nil {
				t.Fatalf("snapshot %d: %v", i, err)
			}
		}
	})

	t.Run("spill directory", func(t *testing.T) {
		names, err := os.ReadDir(filepath.Join(goldenDir, "spill"))
		if err != nil {
			t.Fatal(err)
		}
		written, err := os.ReadDir(spill)
		if err != nil {
			t.Fatal(err)
		}
		if len(written) != len(names) || fr.Spilled < 3 {
			t.Fatalf("the run wrote %d files (%d segments spilled), the golden directory has %d", len(written), fr.Spilled, len(names))
		}
		for _, e := range names {
			got, err := os.ReadFile(filepath.Join(spill, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if golden := goldenFile(t, filepath.Join("spill", e.Name())); !bytes.Equal(got, golden) {
				t.Errorf("%s: wrote %d bytes that differ from the %d golden ones", e.Name(), len(got), len(golden))
			}
		}

		st, err := debugdet.OpenSegmentStore(filepath.Join(goldenDir, "spill"))
		if err != nil {
			t.Fatal(err)
		}
		fresh := fr.Store
		if !reflect.DeepEqual(st.Meta(), fresh.Meta()) || !reflect.DeepEqual(st.Segments(), fresh.Segments()) ||
			st.FeedCount() != fresh.FeedCount() || st.FeedBytes() != fresh.FeedBytes() {
			t.Fatalf("manifest differs:\ngot  %+v %+v\nwant %+v %+v", st.Meta(), st.Segments(), fresh.Meta(), fresh.Segments())
		}
		gotSched, err := st.Sched(0)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := rec.SchedFrom(0); !reflect.DeepEqual(gotSched, want) {
			t.Fatal("feed log's schedule differs from the recorded one")
		}
		for i, si := range st.Segments() {
			events, err := st.Events(i)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(events, rec.Full[si.From:si.To]) {
				t.Fatalf("%s: events differ from the recorded run's [%d, %d)", si.File, si.From, si.To)
			}
			if si.From == 0 {
				continue
			}
			snap, err := st.BestSnapshot(si.From)
			if err != nil {
				t.Fatal(err)
			}
			if err := snap.EqualState(rec.Checkpoints[i-1]); err != nil {
				t.Fatalf("%s: boundary snapshot: %v", si.File, err)
			}
		}
	})
}

// modelsDir holds one .ddrc per (scenario, seed, model) cell below, written
// by the recorders of the commit that added it. Only the perfect path has a
// golden of its own (bank.ddrc above); these pin the partial recordings,
// whose Full log is a projection of the run's trace rather than all of it.
const modelsDir = "testdata/models"

// TestModelRecordingsGolden: recording each cell today writes the golden
// file byte for byte. Regenerate with
// `go test -run TestModelRecordingsGolden -update .` only when a
// recording's format or content is meant to change.
func TestModelRecordingsGolden(t *testing.T) {
	ctx := context.Background()
	eng := debugdet.New()
	cells := []struct {
		scenario string
		seed     int64 // 0: the scenario's default seed
		model    debugdet.Model
	}{
		{"bank", 5, debugdet.Value},
		{"bank", 5, debugdet.Output},
		{"bank", 5, debugdet.Failure},
		{"bank", 5, debugdet.DebugRCSE},
		{"dynokv-staleread", 0, debugdet.Value},
		{"dynokv-staleread", 0, debugdet.DebugRCSE},
	}
	for _, c := range cells {
		s, err := eng.ByName(c.scenario)
		if err != nil {
			t.Fatal(err)
		}
		seed := c.seed
		if seed == 0 {
			seed = s.DefaultSeed
		}
		name := fmt.Sprintf("%s-%d-%s.ddrc", c.scenario, seed, c.model)
		t.Run(name, func(t *testing.T) {
			rec, _, err := eng.Record(ctx, s, c.model, debugdet.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := debugdet.SaveRecording(&buf, rec); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(modelsDir, name)
			if *update {
				if err := os.MkdirAll(modelsDir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), golden) {
				t.Fatalf("Save wrote %d bytes that differ from the %d golden ones", buf.Len(), len(golden))
			}
		})
	}
}

// TestCommittedRecordingsReplayAsFresh: every committed .ddrc was written
// on amd64. Loaded here, each replays with the verdict, attempts and work
// steps of a fresh recording of its cell, so a recording written at one
// word size replays at another (CI runs this under GOARCH=386 as well).
func TestCommittedRecordingsReplayAsFresh(t *testing.T) {
	ctx := context.Background()
	eng := debugdet.New()
	models, _ := filepath.Glob(filepath.Join(modelsDir, "*.ddrc"))
	golden, _ := filepath.Glob(filepath.Join(goldenDir, "*.ddrc"))
	paths := append(models, golden...)
	if len(paths) != 7 {
		t.Fatalf("%d committed recordings, want the 6 model cells and bank.ddrc", len(paths))
	}
	type verdict struct {
		Ok        bool
		Attempts  int
		WorkSteps uint64
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			loaded, err := debugdet.LoadRecording(bufio.NewReader(f))
			if err != nil {
				t.Fatal(err)
			}
			s, err := eng.ByName(loaded.Scenario)
			if err != nil {
				t.Fatal(err)
			}
			fresh, _, err := eng.Record(ctx, s, loaded.Model, debugdet.Options{Seed: loaded.Seed, Params: loaded.Params})
			if err != nil {
				t.Fatal(err)
			}
			replayOf := func(r *debugdet.Recording) verdict {
				res, err := eng.Replay(ctx, s, r, debugdet.ReplayOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return verdict{res.Ok, res.Attempts, res.WorkSteps}
			}
			if got, want := replayOf(loaded), replayOf(fresh); got != want {
				t.Errorf("the committed recording replays as %+v, a fresh one as %+v", got, want)
			}
		})
	}
}
