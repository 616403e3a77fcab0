package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestSmoke runs one pass of every workload in-process at seed 1 and
// checks the pinned invariant fingerprint, so that the benchmark keeps
// compiling and stays correct. Run it with `go test -C bench ./...`.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once; skipped under -short")
	}
	for _, info := range workloads {
		t.Run(info.name, func(t *testing.T) {
			x, err := newRig(1, 2, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			w := info.make()
			if err := w.setup(x); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < w.passLen(); i++ {
				lat, events, err := w.op(x, i)
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if lat <= 0 || events == 0 {
					t.Fatalf("op %d: latency %v, %d events", i, lat, events)
				}
			}
			if got := x.inv.fingerprint(); got != pinnedInvariant[info.name] {
				t.Errorf("invariant fingerprint %s, pinned %s: %v", got, pinnedInvariant[info.name], x.inv)
			}
			if x.fileBytes == 0 || x.fileEvents == 0 || len(x.work) == 0 {
				t.Errorf("file bytes %d, events %d, work %v", x.fileBytes, x.fileEvents, x.work)
			}
			if left, err := os.ReadDir(x.tmp); err != nil || (info.name != "timetravel" && len(left) > 0) {
				t.Errorf("scratch directory after the pass: %v, %v", left, err)
			}
		})
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSON fails when BENCHMARK.json and the tables in this
// package drift apart, and prints the lists the file should hold.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := got
	want.Workloads = nil
	for _, info := range workloads {
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{info.name, info.why})
		if len(info.why) > 200 {
			t.Errorf("%s: why has %d characters, the limit is 200", info.name, len(info.why))
		}
	}
	want.EndToEnd, want.PerLayer = endToEnd, perLayer
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(perLayer))
	}
	if !reflect.DeepEqual(got, want) {
		out, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json does not match the benchmark's tables; it should read:\n%s", out)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4),
// which the driver computes spreads with.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if p := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90); p != 9 {
		t.Errorf("p90 = %v", p)
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "op_ms.p50", Better: lower, Bound: 0.10}
	rate := metricDef{Name: "events_per_s", Better: higher, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{80, 100, 125, 90, 130}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lat, steady, steady, "ok"},
		{"slower", lat, steady, []float64{115, 116, 114, 115, 117}, "regressed"},
		{"faster", lat, steady, []float64{50, 51, 49, 50, 52}, "ok"},
		{"lower rate", rate, steady, []float64{85, 86, 84, 85, 87}, "regressed"},
		{"noisy base", lat, noisy, noisy, "unresolved"},
		{"noisy base, all better", lat, noisy, []float64{60, 61, 62, 63, 64}, "ok"},
	} {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestTracer checks self time and coverage on a hand-built span tree:
// one op with two stages and a nested call under the second.
func TestTracer(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Op: 1, Name: "pipeline", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "record", Start: 0, End: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "replay", Start: 40, End: 90},
		{ID: 4, Parent: 3, Op: 1, Name: "inner", Start: 50, End: 60},
		{ID: 5, Op: 2, Name: "corpus", Start: 100, End: 200},
		{ID: 6, Parent: 5, Op: 2, Name: "record", Start: 100, End: 200},
	}}
	tr.finish()
	if tr.spans[0].Self != 10 || tr.spans[2].Self != 40 || tr.spans[3].Self != 10 {
		t.Errorf("self times %d %d %d", tr.spans[0].Self, tr.spans[2].Self, tr.spans[3].Self)
	}
	stages, coverage := tr.opStats("pipeline")
	if coverage != 0.9 || len(stages) != 2 || stages["record"] != 40e-6 || stages["replay"] != 50e-6 {
		t.Errorf("coverage %v, stages %v", coverage, stages)
	}
	var off *tracer
	off.begin("bench", "x")() // a nil tracer records nothing
}
