package flightrec_test

import (
	"testing"

	"debugdet/internal/core"
	"debugdet/internal/flightrec"
	"debugdet/internal/record"
	"debugdet/internal/replay"
	"debugdet/internal/scenario"
	"debugdet/internal/workload"
)

// soakOptions is the flight-recorder configuration the soak runs use: a
// segment every 4096 events and eight segments of disk retention.
func soakOptions(dir string) flightrec.Options {
	return flightrec.Options{Interval: 4096, Retention: 8, SpillDir: dir}
}

// TestSoakMillionEventRecording is the tentpole acceptance soak: a dynokv
// run scaled past a million events records through the flight recorder at
// one segment of peak memory, and seeking into the retained tail reproduces the
// recorded suffix exactly, with segmented validation invariant across
// worker counts.
func TestSoakMillionEventRecording(t *testing.T) {
	if testing.Short() {
		t.Skip("million-event soak in -short mode")
	}
	s, err := workload.ByName("dynokv-staleread")
	if err != nil {
		t.Fatal(err)
	}
	res, err := flightrec.Record(s, s.DefaultSeed, scenario.Params{"rounds": 1500}, soakOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Events < 1_000_000 {
		t.Fatalf("soak run is only %d events; want >= 1M", res.Events)
	}

	// Peak recorder memory is the building segment, its snapshot and
	// events: bounded by twice the average segment — and in no relation to
	// the run's total event volume.
	avgSeg := (res.LogBytes + res.CheckpointBytes) / int64(res.Segments)
	if res.PeakMemBytes > 2*avgSeg {
		t.Fatalf("peak recorder memory %d exceeds twice the average segment, %d bytes (%d segments)",
			res.PeakMemBytes, avgSeg, res.Segments)
	}
	if res.PeakMemBytes*20 > res.LogBytes {
		t.Fatalf("peak recorder memory %d is not small against the %d-byte run", res.PeakMemBytes, res.LogBytes)
	}

	st := res.Store
	lo, hi := flightrec.Retained(st)
	if hi != res.Events || lo == 0 {
		t.Fatalf("retention kept [%d, %d) of %d events; want a proper tail ending at the run's end", lo, hi, res.Events)
	}

	// Seek into the retained tail: the session must restore from a
	// boundary snapshot and its replayed suffix must be logically
	// identical to the recorded events of the same range.
	target := lo + (hi-lo)*3/4
	sess, err := replay.Seek(s, st, target, replay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sess.FromCheckpoint || sess.SuffixFrom < lo {
		t.Fatalf("tail seek did not restore from a retained checkpoint: fromCkpt=%v suffixFrom=%d lo=%d",
			sess.FromCheckpoint, sess.SuffixFrom, lo)
	}
	if sess.Pos() != target {
		t.Fatalf("seek landed at %d, want %d", sess.Pos(), target)
	}
	view, ok := sess.RunToEnd()
	if !ok {
		t.Fatal("tail seek replay did not reproduce the recorded terminal identity")
	}
	want, err := flightrec.EventRange(st, sess.SuffixFrom, hi)
	if err != nil {
		t.Fatal(err)
	}
	assertEventsMatch(t, "soak tail suffix", view.Trace.Events, want)

	// Segmented validation of the retained tail is worker-count
	// invariant: same verdict, same segment count, same work.
	var first *replay.SegmentedResult
	for _, workers := range []int{1, 4} {
		sres, err := replay.Segmented(s, st, replay.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !sres.Ok {
			t.Fatalf("workers=%d: segmented replay diverged at %d", workers, sres.Mismatch)
		}
		if first == nil {
			first = sres
			continue
		}
		if sres.Segments != first.Segments || sres.WorkSteps != first.WorkSteps {
			t.Fatalf("worker-count variance: %d segments / %d steps vs %d / %d",
				sres.Segments, sres.WorkSteps, first.Segments, first.WorkSteps)
		}
	}
}

// TestSoakMemoryGrowthContrast is the bounded-memory claim measured: as
// the run doubles, the monolithic recorder's in-memory event log doubles
// with it, while the flight recorder's peak memory stays flat at one
// segment.
func TestSoakMemoryGrowthContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("soak contrast in -short mode")
	}
	s, err := workload.ByName("dynokv-staleread")
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		events    uint64
		monoBytes int64
		peak      int64
	}
	var pts []point
	for _, rounds := range []int64{100, 200} {
		p := scenario.Params{"rounds": rounds}
		rec, _, err := core.Record(s, record.Perfect, core.Options{Params: p})
		if err != nil {
			t.Fatal(err)
		}
		res, err := flightrec.Record(s, s.DefaultSeed, p, soakOptions(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		if res.Events != rec.EventCount {
			t.Fatalf("rounds=%d: flight run saw %d events, monolithic %d", rounds, res.Events, rec.EventCount)
		}
		pts = append(pts, point{rec.EventCount, rec.LogBytes, res.PeakMemBytes})
	}
	evRatio := float64(pts[1].events) / float64(pts[0].events)
	monoRatio := float64(pts[1].monoBytes) / float64(pts[0].monoBytes)
	if monoRatio < 0.9*evRatio || monoRatio > 1.1*evRatio {
		t.Fatalf("monolithic memory is not linear in the run: %.0f%% growth for %.0f%% more events",
			(monoRatio-1)*100, (evRatio-1)*100)
	}
	peakRatio := float64(pts[1].peak) / float64(pts[0].peak)
	if peakRatio > 1.5 {
		t.Fatalf("flight-recorder peak grew %.0f%% when the run doubled; the one-segment bound is broken",
			(peakRatio-1)*100)
	}
	if pts[1].peak*4 > pts[1].monoBytes {
		t.Fatalf("flight-recorder peak %d is not small against the %d-byte monolithic log",
			pts[1].peak, pts[1].monoBytes)
	}
}
