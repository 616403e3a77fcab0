package eval

import (
	"fmt"
	"strings"

	"debugdet/internal/core"
	"debugdet/internal/record"
	"debugdet/internal/replay"
	"debugdet/internal/workload"
)

// CkptRow is one point of the checkpoint-interval trade-off (T-CKPT):
// how much recording volume and overhead an interval costs, against how
// much replay work a seek and a segmented replay save. All quantities are
// deterministic (event counts, not wall-clock), so the table is
// reproducible; BenchmarkCheckpointSeek and BenchmarkSegmentedReplay
// measure the corresponding wall-clock on the same setup.
type CkptRow struct {
	// Interval is the checkpoint interval in events (0 = no checkpoints,
	// the baseline row).
	Interval uint64
	// Events is the recorded trace length.
	Events uint64
	// Overhead is the recording's runtime overhead including checkpoint
	// capture; LogBytes and CkptBytes are the recorded volumes.
	Overhead  float64
	LogBytes  int64
	CkptBytes int64
	// Checkpoints is how many snapshots were captured.
	Checkpoints int
	// SeekTarget is the event the seek probe jumps to (¾ of the trace);
	// SeekReplayed is how many events the seek had to re-execute under
	// the scheduler to get there — the seek-latency proxy that full
	// replay pays in full (SeekReplayed == SeekTarget at interval 0).
	SeekTarget   uint64
	SeekReplayed uint64
	// Segments is the segmented replay's segment count and CriticalPath
	// its longest segment in events: the wall-clock lower bound with
	// unlimited workers, as a fraction of Events.
	Segments     int
	CriticalPath uint64
}

// TableCheckpoint measures the checkpoint-interval vs recording-size vs
// seek-latency trade-off (T-CKPT) on the §4 Hypertable scenario under the
// perfect model, one row per interval, rows evaluated across the worker
// pool.
func TableCheckpoint(o Options) ([]CkptRow, error) {
	o = o.withDefaults()
	s, err := workload.ByName("hyperkv-dataloss")
	if err != nil {
		return nil, err
	}
	intervals := []int64{0, 512, 256, 128, 64, 32}
	return grid(o, len(intervals), func(i int) (CkptRow, error) {
		interval := intervals[i]
		rec, _, err := core.Record(s, record.Perfect, core.Options{
			Ctx:                o.Ctx,
			CheckpointInterval: interval,
		})
		if err != nil {
			return CkptRow{}, fmt.Errorf("ckpt interval %d: %w", interval, err)
		}
		row := CkptRow{
			Interval:    uint64(interval),
			Events:      rec.EventCount,
			Overhead:    rec.Overhead,
			LogBytes:    rec.LogBytes,
			CkptBytes:   rec.CheckpointBytes,
			Checkpoints: len(rec.Checkpoints),
			SeekTarget:  rec.EventCount * 3 / 4,
		}
		sess, err := replay.Seek(s, rec, row.SeekTarget, replay.Options{})
		if err != nil {
			return CkptRow{}, fmt.Errorf("ckpt interval %d: seek: %w", interval, err)
		}
		row.SeekReplayed = sess.ReplaySteps
		sess.Close()
		seg, err := replay.Segmented(s, rec, replay.Options{Workers: 1})
		if err != nil {
			return CkptRow{}, fmt.Errorf("ckpt interval %d: segmented: %w", interval, err)
		}
		if !seg.Ok {
			return CkptRow{}, fmt.Errorf("ckpt interval %d: segmented replay diverged at %d", interval, seg.Mismatch)
		}
		row.Segments = seg.Segments
		prev := uint64(0)
		for _, cp := range rec.Checkpoints {
			if cp.Seq-prev > row.CriticalPath {
				row.CriticalPath = cp.Seq - prev
			}
			prev = cp.Seq
		}
		if rec.EventCount-prev > row.CriticalPath {
			row.CriticalPath = rec.EventCount - prev
		}
		return row, nil
	})
}

// RenderTableCheckpoint prints T-CKPT.
func RenderTableCheckpoint(rows []CkptRow) string {
	var b strings.Builder
	b.WriteString("Table CKPT — checkpoint interval vs recording size vs seek latency\n")
	b.WriteString("(hyperkv-dataloss, perfect model; seek probe jumps to 3/4 of the trace;\n")
	b.WriteString("replayed = events re-executed under the scheduler to get there; critical\n")
	b.WriteString("path = longest segment a parallel replay must execute sequentially)\n\n")
	fmt.Fprintf(&b, "%8s %7s %9s %6s %10s %10s %12s %5s %9s\n",
		"interval", "events", "overhead", "ckpts", "log bytes", "ckpt bytes", "seek replay", "segs", "critpath")
	for _, r := range rows {
		interval := "off"
		if r.Interval > 0 {
			interval = fmt.Sprintf("%d", r.Interval)
		}
		fmt.Fprintf(&b, "%8s %7d %8.2fx %6d %10d %10d %6d/%-5d %5d %9d\n",
			interval, r.Events, r.Overhead, r.Checkpoints, r.LogBytes, r.CkptBytes,
			r.SeekReplayed, r.SeekTarget, r.Segments, r.CriticalPath)
	}
	return b.String()
}
