package main

import "time"

// span is one timed interval of the traced run: an op, a stage of an op
// (one SDK call), or a layer probe. Spans of one op share its op number;
// Parent is the span that was open when this one began (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the part its children cover.
	Self int64 `json:"self_ns"`
}

// tracer records spans from the benchmark's own files, around the calls
// into the SDK and the internal packages. It is used from the single
// client goroutine only. A nil tracer, or one switched off, records
// nothing, so the same workload code runs traced and untraced.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
	op    int   // number of the op in progress, 0 outside ops
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func noop() {}

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(layer, name string) func() {
	if t == nil || !t.on {
		return noop
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Layer: layer, Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return func() {
		sp := &t.spans[id-1]
		sp.End = int64(time.Since(t.t0))
		t.open = t.open[:len(t.open)-1]
	}
}

// finish computes every span's self time. Spans come from one goroutine,
// so the children of a span never overlap and their durations add up.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			t.spans[sp.Parent-1].Self -= sp.End - sp.Start
		}
	}
}

// opStats summarizes one workload's op spans after finish (an op's root
// span is named after its workload): the median per-op time of every stage
// in milliseconds (a stage that runs several times in one op is summed
// within the op) and the share of op time covered by stages.
func (t *tracer) opStats(workload string) (stageMs map[string]float64, coverage float64) {
	perOp := map[string]map[int]float64{} // stage → op → ms
	var opNs, selfNs int64
	for _, sp := range t.spans {
		if sp.Op == 0 {
			continue
		}
		if sp.Parent == 0 {
			if sp.Name == workload {
				opNs += sp.End - sp.Start
				selfNs += sp.Self
			}
			continue
		}
		if root := t.spans[sp.Parent-1]; root.Parent != 0 || root.Name != workload {
			continue // deeper than a stage, or another workload's op
		}
		if perOp[sp.Name] == nil {
			perOp[sp.Name] = map[int]float64{}
		}
		perOp[sp.Name][sp.Op] += float64(sp.End-sp.Start) / 1e6
	}
	stageMs = map[string]float64{}
	for name, ops := range perOp {
		var v []float64
		for _, ms := range ops {
			v = append(v, ms)
		}
		stageMs[name] = median(v)
	}
	if opNs > 0 {
		coverage = 1 - float64(selfNs)/float64(opNs)
	}
	return stageMs, coverage
}
