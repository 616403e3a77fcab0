package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"debugdet"
	"debugdet/internal/checkpoint"
	"debugdet/internal/core"
	"debugdet/internal/eval"
	"debugdet/internal/flightrec"
	"debugdet/internal/infer"
	"debugdet/internal/invariant"
	"debugdet/internal/metrics"
	"debugdet/internal/plane"
	"debugdet/internal/race"
	"debugdet/internal/record"
	"debugdet/internal/replay"
	"debugdet/internal/scenario"
	"debugdet/internal/simnet"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// The layer probes time calls into each internal package's public
// functions from here, every call under a span tagged with its layer.
// They run in the traced child after the op window, over fixtures of the
// same shape the workloads use; README.md maps each metric to the
// end-to-end metric and workload it should move.

// Sample counts: heavy probes (a tenth of a second and more per call) run
// few times, cheap ones more often; every metric is the median.
const (
	fewRuns  = 2
	someRuns = 3
	manyRuns = 5
)

// prober runs probes and collects their metrics.
type prober struct {
	x *rig
	m map[string]float64
}

// once runs f under a span and returns its duration in nanoseconds.
func (p *prober) once(layer, name string, f func()) float64 {
	done := p.x.tr.begin(layer, name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	done()
	return float64(d)
}

// timed runs f n times and returns the median duration in nanoseconds and
// the heap objects one run allocates.
func (p *prober) timed(layer, name string, n int, f func()) (ns, mallocs float64) {
	var durs, allocs []float64
	var before, after runtime.MemStats
	for i := 0; i < n; i++ {
		runtime.ReadMemStats(&before)
		durs = append(durs, p.once(layer, name, f))
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
	}
	return median(durs), median(allocs)
}

// fixture is one of the two long runs, recorded for the probes.
type fixture struct {
	name     string
	s        *debugdet.Scenario
	params   debugdet.Params
	seed     int64
	rec      *debugdet.Recording
	view     *debugdet.RunView
	execNs   float64 // bare Scenario.Exec
	recordNs float64 // Engine.Record
}

func (fx *fixture) events() float64 { return float64(fx.rec.EventCount) }

// snapshotAt returns the fixture's checkpoint nearest below the given
// percentage of the run.
func (fx *fixture) snapshotAt(pct uint64) *vm.Snapshot {
	return checkpoint.Best(fx.rec.Checkpoints, fx.rec.EventCount*pct/100)
}

var positions = []uint64{10, 50, 90}

// runProbes fills m with every per-layer metric that does not come from
// the traced workload's own op spans. It first runs a few traced ops of
// every other workload, so that each stage has a span in every trace.
func runProbes(x *rig, own string, m map[string]float64) error {
	x.inv, x.work = counters{}, counters{}
	x.tr.on = true
	defer func() { x.tr.on = false }()
	if err := referenceOps(x, own); err != nil {
		return err
	}
	x.tr.op = 0

	p := &prober{x: x, m: m}
	var fxs []*fixture
	for i, name := range []string{"bank", "dynokv"} {
		fx, err := p.fixture(name, longRuns[i])
		if err != nil {
			return err
		}
		fxs = append(fxs, fx)
	}
	for _, probe := range []func([]*fixture) error{
		p.vm, p.simnet, p.trace, p.record, p.checkpoint, p.replay, p.segmented, p.flightrec, p.infer, p.core, p.analyses,
	} {
		if err := probe(fxs); err != nil {
			return err
		}
	}
	return nil
}

// referenceOpsPerWorkload bounds the ops of each workload other than the
// traced one that run once under spans.
const referenceOpsPerWorkload = 16

func referenceOps(x *rig, own string) error {
	ops := x.tr.op
	for _, info := range workloads {
		if info.name == own {
			continue
		}
		w := info.make()
		x.tr.op = 0 // set-up belongs to no op
		if err := w.setup(x); err != nil {
			return fmt.Errorf("reference %s set-up: %w", info.name, err)
		}
		for i := 0; i < w.passLen() && i < referenceOpsPerWorkload; i++ {
			ops++
			x.tr.op = ops
			done := x.tr.begin("bench", info.name)
			_, _, err := w.op(x, i)
			done()
			if err != nil {
				return fmt.Errorf("reference %s op: %w", info.name, err)
			}
		}
	}
	return nil
}

// fixture records one long run the way pipeline does, timing the bare
// execution and the recording.
func (p *prober) fixture(name string, lr longRun) (*fixture, error) {
	s, err := p.x.eng.ByName(lr.scenario)
	if err != nil {
		return nil, err
	}
	fx := &fixture{name: name, s: s, params: lr.params, seed: p.x.productionSeed(s)}
	var steps uint64
	var mallocs float64
	fx.execNs, mallocs = p.timed("vm", "exec."+name, someRuns, func() {
		steps = s.Exec(scenario.ExecOptions{Seed: fx.seed, Params: lr.params, DisableTrace: true}).Result.Steps
	})
	p.m["vm.exec_ns_per_event."+name] = fx.execNs / float64(steps)
	p.m["vm.allocs_per_event."+name] = mallocs / float64(steps)

	fx.recordNs, _ = p.timed("record", "engine_record."+name, fewRuns, func() {
		fx.rec, fx.view, err = p.x.eng.Record(p.x.ctx, s, debugdet.Perfect, debugdet.Options{
			Seed: fx.seed, Params: lr.params, CheckpointInterval: checkpointInterval,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("fixture %s: %w", name, err)
	}
	return fx, nil
}

func (p *prober) vm(fxs []*fixture) error {
	var short []float64
	for _, s := range p.x.eng.Scenarios() {
		ns, _ := p.timed("vm", "short_run."+s.Name, someRuns, func() {
			s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed, DisableTrace: true})
		})
		short = append(short, ns/1e3)
	}
	p.m["vm.short_run_us"] = median(short)

	// Machine.Snapshot at the cadence the checkpoint writer uses.
	fx := fxs[0]
	var snaps []float64
	p.once("vm", "snapshot", func() {
		fx.s.Exec(scenario.ExecOptions{Seed: fx.seed, Params: fx.params, DisableTrace: true,
			ObserverFactory: func(m *vm.Machine) []vm.Observer {
				return []vm.Observer{vm.ObserverFunc(func(e *trace.Event) uint64 {
					if m.Seq()%checkpointInterval == 0 && !e.Kind.IsTerminal() {
						t0 := time.Now()
						m.Snapshot(e.TID)
						snaps = append(snaps, float64(time.Since(t0))/1e3)
					}
					return 0
				})}
			}})
	})
	if len(snaps) == 0 {
		return errors.New("vm probe: no snapshot taken")
	}
	p.m["vm.snapshot_us"] = median(snaps)
	return nil
}

// pingPongs is the number of request/reply pairs of the simnet probe.
const pingPongs = 2000

func (p *prober) simnet([]*fixture) error {
	var outcome vm.Outcome
	var delivered uint64
	ns, _ := p.timed("simnet", "ping_pong", someRuns, func() {
		m := vm.New(vm.Config{Seed: 1, Inputs: vm.SeededInputs(1, 1000)})
		net := simnet.New(m, simnet.Options{DefaultLink: simnet.LinkConfig{LatencyBase: 50}})
		net.AddNode("a")
		net.AddNode("b")
		net.Build()
		site := m.Site("loop")
		res := m.Run(func(t *vm.Thread) {
			net.Start(t)
			t.SpawnDaemon(site, "b", func(t *vm.Thread) {
				for {
					msg := net.Recv(t, site, "b")
					net.Send(t, site, "b", "a", simnet.Message{Kind: "pong", From: "b", Nums: msg.Nums})
				}
			})
			t.Spawn(site, "a", func(t *vm.Thread) {
				for i := 0; i < pingPongs; i++ {
					net.Send(t, site, "a", "b", simnet.Message{Kind: "ping", From: "a", Nums: []int64{int64(i)}})
					net.Recv(t, site, "a")
				}
			})
		})
		outcome, delivered = res.Outcome, net.Delivered()
	})
	if outcome != vm.OutcomeOK || delivered != 2*pingPongs {
		return fmt.Errorf("simnet probe: outcome %v, %d messages delivered", outcome, delivered)
	}
	p.m["simnet.msg_ns"] = ns / (2 * pingPongs)
	return nil
}

func (p *prober) trace(fxs []*fixture) error {
	log := fxs[0].view.Trace
	n := float64(log.Len())
	var buf bytes.Buffer
	var err error
	ns, mallocs := p.timed("trace", "encode", someRuns, func() {
		buf.Reset()
		_, err = trace.Encode(&buf, log)
	})
	if err != nil {
		return fmt.Errorf("trace probe: %w", err)
	}
	p.m["trace.encode_ns_per_event"] = ns / n
	p.m["trace.encode_allocs_per_event"] = mallocs / n
	p.m["trace.encoded_bytes_per_event"] = float64(buf.Len()) / n

	var back *trace.Log
	ns, mallocs = p.timed("trace", "decode", someRuns, func() {
		back, err = trace.Decode(bytes.NewReader(buf.Bytes()))
	})
	if err != nil {
		return fmt.Errorf("trace probe: %w", err)
	}
	if !trace.EventsEqual(log, back, false) {
		return errors.New("trace probe: decoded log differs")
	}
	p.m["trace.decode_ns_per_event"] = ns / n
	p.m["trace.decode_allocs_per_event"] = mallocs / n
	return nil
}

func (p *prober) record(fxs []*fixture) error {
	events := fxs[0].view.Trace.Events
	for _, model := range []record.Model{record.Perfect, record.Value, record.Output, record.Failure} {
		var r *record.Recorder
		ns, _ := p.timed("record", "on_event."+model.String(), someRuns, func() {
			r = record.NewRecorder(vm.New(vm.Config{}), record.PolicyFor(model))
			for i := range events {
				e := events[i]
				r.OnEvent(&e)
			}
		})
		p.m["record.on_event_ns."+model.String()] = ns / float64(len(events))
		p.m["record.log_bytes_per_event."+model.String()] = float64(r.Bytes()) / float64(len(events))
	}

	var execNs, recordNs, saveNs, saveAllocs, loadNs, loadAllocs, n float64
	for _, fx := range fxs {
		execNs += fx.execNs
		recordNs += fx.recordNs
		n += fx.events()
		var buf bytes.Buffer
		var err error
		ns, mallocs := p.timed("record", "save."+fx.name, someRuns, func() {
			buf.Reset()
			err = fx.rec.Save(&buf)
		})
		if err != nil {
			return fmt.Errorf("record probe: %w", err)
		}
		saveNs += ns
		saveAllocs += mallocs
		ns, mallocs = p.timed("record", "load."+fx.name, fewRuns, func() {
			_, err = record.Load(bytes.NewReader(buf.Bytes()))
		})
		if err != nil {
			return fmt.Errorf("record probe: %w", err)
		}
		loadNs += ns
		loadAllocs += mallocs
	}
	p.m["record.host_slowdown_x"] = recordNs / execNs
	p.m["record.save_ns_per_event"] = saveNs / n
	p.m["record.save_allocs_per_event"] = saveAllocs / n
	p.m["record.load_ns_per_event"] = loadNs / n
	p.m["record.load_allocs_per_event"] = loadAllocs / n
	return nil
}

// perRecording runs a timed probe on each long recording and returns the
// mean of the two medians, in nanoseconds.
func (p *prober) perRecording(fxs []*fixture, layer, name string, n int, f func(*fixture)) float64 {
	total := 0.0
	for _, fx := range fxs {
		ns, _ := p.timed(layer, name+"."+fx.name, n, func() { f(fx) })
		total += ns
	}
	return total / float64(len(fxs))
}

// bestCalls is the number of lookups one timing of a microsecond-scale
// probe covers.
const bestCalls = 1000

func (p *prober) checkpoint(fxs []*fixture) error {
	var snaps, snapBytes, encNs, decNs, rehydrateNs float64
	var err error
	for _, fx := range fxs {
		cps := fx.rec.Checkpoints
		snaps += float64(len(cps))
		snapBytes += float64(fx.rec.CheckpointBytes)
		var buf bytes.Buffer
		ns, _ := p.timed("checkpoint", "encode."+fx.name, someRuns, func() {
			buf.Reset()
			_, err = checkpoint.EncodeSnapshots(&buf, cps)
		})
		encNs += ns
		var decoded []*vm.Snapshot
		ns, _ = p.timed("checkpoint", "decode."+fx.name, someRuns, func() {
			if err == nil {
				decoded, err = checkpoint.DecodeSnapshots(bufio.NewReader(bytes.NewReader(buf.Bytes())))
			}
		})
		decNs += ns
		ns, _ = p.timed("checkpoint", "rehydrate."+fx.name, fewRuns, func() {
			if err == nil {
				err = checkpoint.RehydrateStreams(decoded, fx.rec.Full)
			}
		})
		rehydrateNs += ns
		if err != nil {
			return fmt.Errorf("checkpoint probe: %w", err)
		}
	}
	p.m["checkpoint.snapshots_per_op"] = snaps
	p.m["checkpoint.bytes_per_snapshot"] = snapBytes / snaps
	p.m["checkpoint.encode_us_per_snapshot"] = encNs / 1e3 / snaps
	p.m["checkpoint.decode_us_per_snapshot"] = decNs / 1e3 / snaps
	p.m["checkpoint.rehydrate_ms"] = rehydrateNs / 1e6

	p.m["checkpoint.best_us"] = p.perRecording(fxs, "checkpoint", "best", someRuns, func(fx *fixture) {
		for i := uint64(0); i < bestCalls; i++ {
			checkpoint.Best(fx.rec.Checkpoints, fx.rec.EventCount*i/bestCalls)
		}
	}) / 1e3 / bestCalls
	p.m["checkpoint.plan_feeds_ms"] = p.perRecording(fxs, "checkpoint", "plan_feeds", someRuns, func(fx *fixture) {
		if _, e := checkpoint.PlanFeeds(fx.rec.Full, fx.rec.Checkpoints); e != nil {
			err = e
		}
	}) / 1e6
	for _, pos := range positions {
		name := fmt.Sprintf("feeds_ms.pos%d", pos)
		p.m["checkpoint."+name] = p.perRecording(fxs, "checkpoint", name, someRuns, func(fx *fixture) {
			cp := fx.snapshotAt(pos)
			if _, e := checkpoint.Feeds(fx.rec.Full, cp.Seq, len(cp.Threads)); e != nil {
				err = e
			}
		}) / 1e6
	}
	if err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	return nil
}

// seekProbeTargets is how many stratified positions per recording the
// seek probe visits for re-executed events and allocation.
const seekProbeTargets = 8

func (p *prober) replay(fxs []*fixture) error {
	var err error
	seek := func(fx *fixture, target uint64) (steps uint64) {
		sess, e := replay.Seek(fx.s, fx.rec, target, replay.Options{})
		if e != nil {
			err = e
			return 0
		}
		if sess.Pos() != target {
			err = fmt.Errorf("seek to %d landed on %d", target, sess.Pos())
		}
		steps = sess.ReplaySteps
		sess.Close()
		return steps
	}

	for _, fx := range fxs {
		ns, _ := p.timed("replay", "replay."+fx.name, fewRuns, func() {
			if res := replay.Replay(fx.s, fx.rec, replay.Options{}); !res.Ok {
				err = fmt.Errorf("replay %s: %s", fx.name, res.Note)
			}
		})
		p.m["replay.replay_ns_per_event."+fx.name] = ns / fx.events()
	}

	for _, pos := range positions {
		name := fmt.Sprintf("seek_at_ckpt_ms.pos%d", pos)
		p.m["replay."+name] = p.perRecording(fxs, "replay", name, someRuns, func(fx *fixture) {
			seek(fx, fx.snapshotAt(pos).Seq)
		}) / 1e6
	}
	// The longest suffix one checkpoint serves, against no suffix.
	const suffix = checkpointInterval - 1
	withSuffix := p.perRecording(fxs, "replay", "seek_suffix", someRuns, func(fx *fixture) {
		seek(fx, fx.snapshotAt(50).Seq+suffix)
	})
	p.m["replay.seek_suffix_ns_per_event"] = (withSuffix - p.m["replay.seek_at_ckpt_ms.pos50"]*1e6) / suffix

	var steps, allocMB []float64
	var before, after runtime.MemStats
	for _, fx := range fxs {
		for k := uint64(0); k < seekProbeTargets; k++ {
			target := fx.rec.EventCount * (2*k + 1) / (2 * seekProbeTargets)
			runtime.ReadMemStats(&before)
			p.once("replay", "seek_stratified."+fx.name, func() { steps = append(steps, float64(seek(fx, target))) })
			runtime.ReadMemStats(&after)
			allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		}
	}
	p.m["replay.seek_reexec_events.p50"] = median(steps)
	p.m["replay.seek_alloc_mb"] = sum(allocMB) / float64(len(allocMB))

	var back []float64
	for _, fx := range fxs {
		d, e := replay.NewDebugger(fx.s, fx.rec, replay.DebugOptions{})
		if e != nil {
			return fmt.Errorf("replay probe: debugger: %w", e)
		}
		if e := d.SeekTo(fx.rec.EventCount / 2); e != nil {
			err = e
		}
		ns, _ := p.timed("replay", "debug_back."+fx.name, someRuns, func() {
			if e := d.Back(1); e != nil {
				err = e
			}
		})
		d.Close()
		back = append(back, ns/1e6)
	}
	p.m["replay.debug_back_ms"] = sum(back) / float64(len(back))
	if err != nil {
		return fmt.Errorf("replay probe: %w", err)
	}
	return nil
}

// segmented compares validated sequential replay with segmented replay
// at one and two workers, on the bank run checkpointed at quarters so
// that the segments match a small worker pool — the comparison ROADMAP
// item 1 asks to win or delete.
func (p *prober) segmented(fxs []*fixture) error {
	fx := fxs[0]
	rec, _, err := p.x.eng.Record(p.x.ctx, fx.s, debugdet.Perfect, debugdet.Options{
		Seed: fx.seed, Params: fx.params, CheckpointInterval: int64(fx.rec.EventCount / 4),
	})
	if err != nil {
		return fmt.Errorf("segmented probe: %w", err)
	}
	ns, _ := p.timed("replay", "sequential", fewRuns, func() {
		if res := replay.Replay(fx.s, rec, replay.Options{}); !res.Ok {
			err = fmt.Errorf("sequential replay: %s", res.Note)
		}
	})
	p.m["replay.sequential_ms"] = ns / 1e6
	for _, workers := range []int{1, 2} {
		ns, _ := p.timed("replay", fmt.Sprintf("segmented.w%d", workers), fewRuns, func() {
			res, e := replay.Segmented(fx.s, rec, replay.Options{Workers: workers})
			if e != nil {
				err = e
			} else if !res.Ok {
				err = fmt.Errorf("segmented replay diverged at %d", res.Mismatch)
			}
		})
		p.m[fmt.Sprintf("replay.segmented_ms.w%d", workers)] = ns / 1e6
	}
	if err != nil {
		return fmt.Errorf("segmented probe: %w", err)
	}
	return nil
}

func (p *prober) flightrec(fxs []*fixture) error {
	fx := fxs[1] // the streaming workload's program, at the pipeline's length
	dir := filepath.Join(p.x.tmp, "probe-spill")
	defer os.RemoveAll(dir)
	opts := streamFlight
	opts.SpillDir = dir
	var res *flightrec.RecordResult
	var err error
	ns, _ := p.timed("flightrec", "record", fewRuns, func() {
		if err == nil {
			if err = os.RemoveAll(dir); err == nil {
				res, err = flightrec.Record(fx.s, fx.seed, fx.params, opts)
			}
		}
	})
	if err != nil {
		return fmt.Errorf("flightrec probe: %w", err)
	}
	n := float64(res.Events)
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	p.m["flightrec.record_ns_per_event"] = ns / n
	p.m["flightrec.host_slowdown_x"] = ns / fx.execNs
	p.m["flightrec.disk_bytes_per_event"] = float64(disk) / n
	p.m["flightrec.feed_bytes_per_event"] = float64(res.FeedBytes) / n
	p.m["flightrec.peak_mem_bytes"] = float64(res.PeakMemBytes)
	p.m["flightrec.segments_sealed"] = float64(res.Segments)
	p.m["flightrec.segments_spilled"] = float64(res.Spilled)
	p.m["flightrec.segments_evicted"] = float64(res.Evicted)

	// A fresh store per sample: opening reads the manifest, the first
	// schedule request scans the feed log, the first Events call decodes
	// and rehydrates a segment.
	var st *flightrec.DiskStore
	var openMs, feedsMs, eventsMs []float64
	var events []trace.Event
	for i := 0; i < someRuns && err == nil; i++ {
		openMs = append(openMs, p.once("flightrec", "open", func() { st, err = flightrec.Open(dir) })/1e6)
		if err != nil {
			break
		}
		feedsMs = append(feedsMs, p.once("flightrec", "store_feeds", func() { _, err = st.Sched(0) })/1e6)
		last := len(st.Segments()) - 1
		eventsMs = append(eventsMs, p.once("flightrec", "store_events", func() {
			if err == nil {
				events, err = st.Events(last)
			}
		})/1e6)
	}
	if err != nil {
		return fmt.Errorf("flightrec probe: %w", err)
	}
	p.m["flightrec.open_ms"] = median(openMs)
	p.m["flightrec.store_feeds_ms"] = median(feedsMs)
	p.m["flightrec.store_events_ms"] = median(eventsMs)

	lo, hi := flightrec.Retained(st)
	ns, _ = p.timed("flightrec", "store_best_snapshot", someRuns, func() {
		for i := uint64(0); i < bestCalls; i++ {
			if _, e := st.BestSnapshot(lo + (hi-lo)*i/bestCalls); e != nil {
				err = e
			}
		}
	})
	p.m["flightrec.store_best_snapshot_us"] = ns / 1e3 / bestCalls

	info := st.Segments()[len(st.Segments())-1]
	snap, e := st.BestSnapshot(info.From)
	if e != nil || err != nil {
		return fmt.Errorf("flightrec probe: %w", errors.Join(e, err))
	}
	seg := &flightrec.Segment{SegmentInfo: info, Snap: snap, Events: events}
	var buf bytes.Buffer
	ns, _ = p.timed("flightrec", "segment_encode", manyRuns, func() {
		buf.Reset()
		_, err = flightrec.EncodeSegment(&buf, seg)
	})
	p.m["flightrec.segment_encode_ns_per_event"] = ns / float64(len(events))
	ns, _ = p.timed("flightrec", "segment_decode", manyRuns, func() {
		if err == nil {
			_, err = flightrec.DecodeSegment(bytes.NewReader(buf.Bytes()))
		}
	})
	p.m["flightrec.segment_decode_ns_per_event"] = ns / float64(len(events))
	if err != nil {
		return fmt.Errorf("flightrec probe: %w", err)
	}
	return nil
}

// searchBudget and searchSeed are the engine's defaults for inference.
const (
	searchBudget = 200
	searchSeed   = 7
)

// infer replays output- and failure-determinism recordings of every
// corpus scenario: one pass is the 17 searches of one model.
func (p *prober) infer([]*fixture) error {
	scenarios := p.x.eng.Scenarios()
	type totals struct{ attempts, accepted, worksteps float64 }
	pass := func(recs []*record.Recording, fork bool) (t totals, err error) {
		for i, s := range scenarios {
			res := replay.Replay(s, recs[i], replay.Options{Budget: searchBudget, SearchSeed: searchSeed, Workers: 1, Fork: fork})
			if res.Err != nil {
				return t, res.Err
			}
			t.attempts += float64(res.Attempts)
			t.worksteps += float64(res.WorkSteps)
			if res.Ok {
				t.accepted++
			}
		}
		return t, nil
	}

	var scratch, forked totals
	var searchNs float64
	for _, model := range []record.Model{record.Output, record.Failure} {
		recs := make([]*record.Recording, len(scenarios))
		for i, s := range scenarios {
			rec, _, err := record.Record(s, model, s.DefaultSeed, nil)
			if err != nil {
				return fmt.Errorf("infer probe: %w", err)
			}
			recs[i] = rec
		}
		var t totals
		var err error
		ns, _ := p.timed("infer", "search."+model.String(), fewRuns, func() {
			if err == nil {
				t, err = pass(recs, false)
			}
		})
		var f totals
		p.once("infer", "search_forked."+model.String(), func() {
			if err == nil {
				f, err = pass(recs, true)
			}
		})
		if err != nil {
			return fmt.Errorf("infer probe: %w", err)
		}
		p.m["infer.search_ms."+model.String()] = ns / 1e6
		searchNs += ns
		scratch.attempts += t.attempts
		scratch.accepted += t.accepted
		scratch.worksteps += t.worksteps
		forked.worksteps += f.worksteps
	}
	p.m["infer.attempts_per_pass"] = scratch.attempts
	p.m["infer.worksteps_per_pass"] = scratch.worksteps
	p.m["infer.candidates_per_s"] = scratch.attempts / (searchNs / 1e9)
	p.m["infer.accept_ratio"] = scratch.accepted / scratch.attempts
	p.m["infer.fork_worksteps_ratio"] = forked.worksteps / scratch.worksteps

	// The bank sensitivity sweep of BenchmarkForkedSearch: schedule and
	// control inputs forced, every candidate equivalent to the trunk.
	s, err := p.x.eng.ByName("bank")
	if err != nil {
		return err
	}
	v := s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed})
	opts := infer.Options{
		Budget: 40, BaseSeed: searchSeed, Workers: 1, Schedule: v.Trace.Schedule(),
		ForcedInputs: map[string][]trace.Value{"xfer.pick": v.Result.InputsUsed["xfer.pick"]},
	}
	reject := func(*scenario.RunView) bool { return false }
	sweep := func(name string, o infer.Options) float64 {
		ns, _ := p.timed("infer", name, someRuns, func() {
			if out := infer.Search(s, reject, o); out.Err != nil || out.Attempts != o.Budget {
				err = fmt.Errorf("%s: err %v, %d attempts", name, out.Err, out.Attempts)
			}
		})
		return ns
	}
	scratchNs := sweep("sweep_scratch", opts)
	opts.Fork = true
	p.m["infer.fork_speedup_x"] = scratchNs / sweep("sweep_forked", opts)
	if err != nil {
		return fmt.Errorf("infer probe: %w", err)
	}
	return nil
}

// core times the phases of the evaluation pipeline summed over the
// corpus, sequentially, so that the sums are comparable with each other.
func (p *prober) core([]*fixture) error {
	scenarios := p.x.eng.Scenarios()
	var err error
	ns, _ := p.timed("core", "rcse_prepare", fewRuns, func() {
		for _, s := range scenarios {
			if _, e := core.PrepareRCSE(s, core.Options{}); e != nil {
				err = e
			}
		}
	})
	p.m["core.rcse_prepare_ms"] = ns / 1e6
	ns, _ = p.timed("core", "record_only", fewRuns, func() {
		for _, s := range scenarios {
			for _, model := range record.AllModels() {
				if _, _, _, e := core.RecordOnly(s, model, core.Options{}); e != nil {
					err = e
				}
			}
		}
	})
	p.m["core.record_only_ms"] = ns / 1e6

	var fidelity []float64
	for _, model := range record.AllModels() {
		evs := make([]*core.Evaluation, len(scenarios))
		ns, _ := p.timed("core", "evaluate."+model.String(), fewRuns, func() {
			for i, s := range scenarios {
				ev, e := core.Evaluate(s, model, core.Options{Workers: 1})
				if e != nil {
					err = e
				}
				evs[i] = ev
			}
		})
		if err != nil {
			return fmt.Errorf("core probe: %w", err)
		}
		p.m["core.evaluate_ms."+model.String()] = ns / 1e6
		for i, s := range scenarios {
			ns, _ := p.timed("metrics", "fidelity."+s.Name, someRuns, func() {
				metrics.ComputeFidelity(s, evs[i].Orig, evs[i].Replay.View)
			})
			fidelity = append(fidelity, ns/1e3)
		}
	}
	p.m["metrics.fidelity_us"] = median(fidelity)
	return nil
}

// analyses times the trace analyses RCSE preparation runs, over the
// dynokv run's oracle trace, and the Fig. 1 generator.
func (p *prober) analyses(fxs []*fixture) error {
	log := fxs[1].view.Trace
	n := float64(log.Len())
	ns, _ := p.timed("plane", "classify", someRuns, func() { plane.ClassifyTrace(log, plane.Options{}) })
	p.m["plane.classify_us_per_event"] = ns / 1e3 / n
	ns, _ = p.timed("invariant", "infer", someRuns, func() {
		inf := invariant.NewInferencer()
		inf.AddTrace(log)
		inf.Infer()
	})
	p.m["invariant.infer_us_per_event"] = ns / 1e3 / n
	ns, _ = p.timed("race", "analyze", someRuns, func() { race.Analyze(log) })
	p.m["race.analyze_us_per_event"] = ns / 1e3 / n
	ns, _ = p.timed("race", "on_event", someRuns, func() {
		d := race.NewDetector(race.Options{})
		for i := range log.Events {
			d.OnEvent(&log.Events[i])
		}
	})
	p.m["race.on_event_ns"] = ns / n

	var err error
	ns, _ = p.timed("eval", "fig1", fewRuns, func() {
		if _, e := eval.Fig1(eval.Options{ReplayBudget: 120}); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("eval probe: %w", err)
	}
	p.m["eval.fig1_ms"] = ns / 1e6
	return nil
}
