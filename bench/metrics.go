package main

import (
	"fmt"

	"debugdet/internal/record"
)

// metricDef names one metric. BENCHMARK.json at the repository root lists
// the same tables; the smoke test fails when the two drift apart.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system would see. Every one is
// reported for every workload, from untraced rounds only.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"op_ms.p50", "ms", lower, 0.25},
	{"events_per_s", "1/s", higher, 0.25},
	{"alloc_mb_per_op", "MB", lower, 0.03},
	{"file_bytes_per_event", "B/event", lower, 0.005},
}

// stageNames are the stages of the four workloads' ops, each one SDK call
// (or the harness's own verification and cleanup).
var stageNames = []string{
	"record", "save", "load", "replay", "verify", "seek", "stream_record", "open",
	"store_seek", "segmented_replay", "cleanup", "evaluate_batch",
}

// perLayer are the metrics of single layers, measured in the traced run
// only and never gated. The prefix of a name is the package it measures.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// each expands "prefix." over the given suffixes.
	each := func(prefix string, suffixes ...string) []string {
		out := make([]string, len(suffixes))
		for i, s := range suffixes {
			out[i] = prefix + "." + s
		}
		return out
	}
	runs := []string{"bank", "dynokv"}
	pos := []string{"pos10", "pos50", "pos90"}
	var stock, all []string
	for _, m := range record.AllModels() {
		all = append(all, m.String())
		if m != record.DebugRCSE {
			stock = append(stock, m.String())
		}
	}

	add("ms", lower, each("bench.stage_ms", stageNames...)...)
	add("ms", lower, "bench.op_ms.p90", "bench.cpu_ms_per_op")
	add("MB", lower, "bench.peak_rss_mb")
	add("ratio", lower, "bench.steal_share")
	add("ratio", higher, "bench.span_coverage")
	add("x", lower, "bench.trace_overhead_x")

	add("ns/event", lower, each("vm.exec_ns_per_event", runs...)...)
	add("1/event", lower, each("vm.allocs_per_event", runs...)...)
	add("us", lower, "vm.short_run_us", "vm.snapshot_us")
	add("ns", lower, "simnet.msg_ns")

	add("ns/event", lower, "trace.encode_ns_per_event", "trace.decode_ns_per_event")
	add("1/event", lower, "trace.encode_allocs_per_event", "trace.decode_allocs_per_event")
	add("B/event", lower, "trace.encoded_bytes_per_event")

	add("ns", lower, each("record.on_event_ns", stock...)...)
	add("B/event", lower, each("record.log_bytes_per_event", stock...)...)
	add("x", lower, "record.host_slowdown_x")
	add("ns/event", lower, "record.save_ns_per_event", "record.load_ns_per_event")
	add("1/event", lower, "record.save_allocs_per_event", "record.load_allocs_per_event")

	add("count", lower, "checkpoint.snapshots_per_op")
	add("B", lower, "checkpoint.bytes_per_snapshot")
	add("us", lower, "checkpoint.encode_us_per_snapshot", "checkpoint.decode_us_per_snapshot")
	add("ms", lower, "checkpoint.rehydrate_ms")
	add("us", lower, "checkpoint.best_us")
	add("ms", lower, "checkpoint.plan_feeds_ms")
	add("ms", lower, each("checkpoint.feeds_ms", pos...)...)

	add("ns/event", lower, each("replay.replay_ns_per_event", runs...)...)
	add("ms", lower, each("replay.seek_at_ckpt_ms", pos...)...)
	add("ns/event", lower, "replay.seek_suffix_ns_per_event")
	add("count", lower, "replay.seek_reexec_events.p50")
	add("MB", lower, "replay.seek_alloc_mb")
	add("ms", lower, "replay.debug_back_ms", "replay.sequential_ms", "replay.segmented_ms.w1", "replay.segmented_ms.w2")

	add("ns/event", lower, "flightrec.record_ns_per_event")
	add("x", lower, "flightrec.host_slowdown_x")
	add("ns/event", lower, "flightrec.segment_encode_ns_per_event", "flightrec.segment_decode_ns_per_event")
	add("B/event", lower, "flightrec.disk_bytes_per_event", "flightrec.feed_bytes_per_event")
	add("B", lower, "flightrec.peak_mem_bytes")
	add("count", lower, "flightrec.segments_sealed", "flightrec.segments_spilled", "flightrec.segments_evicted")
	add("ms", lower, "flightrec.open_ms", "flightrec.store_events_ms", "flightrec.store_feeds_ms")
	add("us", lower, "flightrec.store_best_snapshot_us")

	add("ms", lower, "infer.search_ms.output", "infer.search_ms.failure")
	add("count", lower, "infer.attempts_per_pass", "infer.worksteps_per_pass")
	add("1/s", higher, "infer.candidates_per_s")
	add("ratio", higher, "infer.accept_ratio")
	add("ratio", lower, "infer.fork_worksteps_ratio")
	add("x", higher, "infer.fork_speedup_x")

	add("ms", lower, "core.rcse_prepare_ms", "core.record_only_ms")
	add("ms", lower, each("core.evaluate_ms", all...)...)

	add("us/event", lower, "plane.classify_us_per_event", "invariant.infer_us_per_event", "race.analyze_us_per_event")
	add("ns", lower, "race.on_event_ns")
	add("us", lower, "metrics.fidelity_us")
	add("ms", lower, "eval.fig1_ms")
	return defs
}

// measured is one reported metric value.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerMetrics checks that a traced run produced every per-layer metric
// and attaches the units.
func layerMetrics(layers map[string]float64) (map[string]measured, error) {
	out := make(map[string]measured, len(perLayer))
	for _, d := range perLayer {
		v, ok := layers[d.Name]
		if !ok {
			return nil, fmt.Errorf("traced run did not report %s", d.Name)
		}
		out[d.Name] = measured{v, d.Unit}
	}
	return out, nil
}

// pinnedInvariant is every workload's invariant fingerprint at seed 1. It
// covers results no commit may change: events recorded and replayed,
// positions reached, cells, fidelity and failure signatures.
var pinnedInvariant = map[string]string{
	"pipeline":   "12a458c006785bfd",
	"timetravel": "8d6d0d144b735b8e",
	"streaming":  "d153c20866f92b10",
	"corpus":     "9e034e12f5673d15",
}
