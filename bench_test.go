package debugdet

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"debugdet/internal/checkpoint"
	"debugdet/internal/core"
	"debugdet/internal/eval"
	"debugdet/internal/flightrec"
	"debugdet/internal/infer"
	"debugdet/internal/race"
	"debugdet/internal/record"
	"debugdet/internal/replay"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// The benchmarks below measure the framework's own building blocks; seven
// of them (BenchmarkVMStepThroughput, BenchmarkSchedRound,
// BenchmarkThreadSwitch, BenchmarkCheckpointSeek, BenchmarkFeedReplay,
// BenchmarkSegmentedReplay, BenchmarkFlightRecorder) also assert a
// dual-path, scaling or restored-state contract and run once in CI.
// Regenerating the paper's artifacts is timed by bench/'s corpus workload
// and eval.fig1_ms, not here. Run with:
//
//	go test -bench=. -benchmem

// BenchmarkVMThroughput measures raw VM event throughput (two threads
// hammering a shared counter, no recording, no trace collection).
func BenchmarkVMThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := vm.New(vm.Config{Seed: int64(i), CollectTrace: false})
		c := m.NewCell("c", trace.Int(0))
		s := m.Site("s")
		sp := m.Site("spawn")
		w := func(t *vm.Thread) {
			for j := 0; j < 500; j++ {
				v := t.Load(s, c)
				t.Store(s, c, trace.Int(v.AsInt()+1))
			}
		}
		res := m.Run(func(t *vm.Thread) {
			t.Spawn(sp, "a", w)
			t.Spawn(sp, "b", w)
		})
		if res.Outcome != vm.OutcomeOK {
			b.Fatalf("outcome %v", res.Outcome)
		}
	}
}

// BenchmarkVMStepThroughput measures the VM scheduling hot path itself:
// one long-running thread stepping through loads and stores while a second
// thread sits blocked on an empty channel. The scheduler re-picks the same
// thread at every decision, so this is the pure per-step cost of the inline
// path — scheduling, event emission, no thread switch — with no recording
// attached.
func BenchmarkVMStepThroughput(b *testing.B) {
	b.ReportAllocs()
	const stepsPerRun = 2000
	var rounds, evals uint64
	for i := 0; i < b.N; i++ {
		m := vm.New(vm.Config{Seed: int64(i), CollectTrace: false})
		c := m.NewCell("c", trace.Int(0))
		ch := m.NewChan("ch", 1)
		s := m.Site("s")
		sp := m.Site("spawn")
		res := m.Run(func(t *vm.Thread) {
			t.Spawn(sp, "blocked", func(t *vm.Thread) {
				t.Recv(s, ch) // parked until the main thread finishes
			})
			for j := 0; j < stepsPerRun; j++ {
				v := t.Load(s, c)
				t.Store(s, c, trace.Int(v.AsInt()+1))
			}
			t.Send(s, ch, trace.Int(0))
		})
		if res.Outcome != vm.OutcomeOK {
			b.Fatalf("outcome %v", res.Outcome)
		}
		rounds, evals = rounds+res.SchedRounds, evals+res.SchedEvals
	}
	b.ReportMetric(float64(evals)/float64(rounds), "evals/round")
}

// ParkedProgram builds the program BenchmarkSchedRound and the scaling guard
// (scaling_test.go) run: main and two threads it spawns last each take a
// lock-protected counter through iters increments, while threads-3 others,
// spawned first, sit in Recv on inboxes nobody sends to until main has
// finished — the shape of a dynokv cluster, where most threads wait for a
// message the whole time. It runs under the default random scheduler.
func ParkedProgram(threads, iters int) (*vm.Machine, func(*vm.Thread)) {
	m := vm.New(vm.Config{Seed: 1})
	c := m.NewCell("c", trace.Int(0))
	mu := m.NewMutex("mu")
	inboxes := make([]trace.ObjID, threads-3)
	for i := range inboxes {
		inboxes[i] = m.NewChan("inbox", 1)
	}
	s, sp := m.Site("s"), m.Site("spawn")
	work := func(t *vm.Thread) {
		for i := 0; i < iters; i++ {
			t.Lock(s, mu)
			t.Store(s, c, trace.Int(t.Load(s, c).AsInt()+1))
			t.Unlock(s, mu)
		}
	}
	return m, func(t *vm.Thread) {
		for _, inbox := range inboxes {
			t.Spawn(sp, "parked", func(t *vm.Thread) { t.Recv(s, inbox) })
		}
		t.Spawn(sp, "a", work)
		t.Spawn(sp, "b", work)
		work(t)
		for _, inbox := range inboxes {
			t.Send(s, inbox, trace.Int(0))
		}
	}
}

// BenchmarkSchedRound measures one scheduling round — bring the enabled set
// up to date, ask the scheduler, apply the op — as the thread count grows,
// on ParkedProgram. Only the contended middle is timed (ns/op is one run's
// middle, ns/round one of its rounds): spawning and draining the parked
// threads is coroutine creation, not scheduling. With the enabled set
// maintained across rounds the line is flat: a round re-evaluates the thread
// that ran and the lock's waiters, never the parked ones. evals/round is over
// the whole run.
func BenchmarkSchedRound(b *testing.B) {
	const iters = 2000
	// The middle stops short of where the first contender runs out.
	const middle = 3*4*iters - 4000
	for _, threads := range []int{4, 100, 1000} {
		b.Run(fmt.Sprintf("threads-%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			var rounds, evals uint64
			// Until the parked threads exist main is the only enabled thread,
			// so spawning them takes exactly one event each.
			spawned := uint64(threads - 3)
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				m, main := ParkedProgram(threads, iters)
				m.Start(main)
				m.Continue(spawned)
				b.StartTimer()
				m.Continue(spawned + middle)
				b.StopTimer()
				m.Continue(0)
				res := m.Finish()
				if res.Outcome != vm.OutcomeOK {
					b.Fatalf("outcome %v", res.Outcome)
				}
				rounds, evals = rounds+res.SchedRounds, evals+res.SchedEvals
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*middle), "ns/round")
			b.ReportMetric(float64(evals)/float64(rounds), "evals/round")
		})
	}
}

// BenchmarkThreadSwitch measures one thread switch: two threads whose bodies
// only Yield, under the round-robin scheduler, so every round picks the
// thread that did not just run and nothing applies inline (the assertion).
// ns/op is one run, ns/switch one of its hand-offs: driver to thread and
// back, with the round's scheduling and event emission in between.
func BenchmarkThreadSwitch(b *testing.B) {
	b.ReportAllocs()
	const yields = 2000
	var rounds, handoffs uint64
	for i := 0; i < b.N; i++ {
		m := vm.New(vm.Config{Scheduler: vm.NewRoundRobinScheduler()})
		s := m.Site("s")
		body := func(t *vm.Thread) {
			for j := 0; j < yields; j++ {
				t.Yield(s)
			}
		}
		res := m.Run(func(t *vm.Thread) {
			t.Spawn(s, "b", body)
			body(t)
		})
		if res.Outcome != vm.OutcomeOK {
			b.Fatalf("outcome %v", res.Outcome)
		}
		rounds, handoffs = rounds+res.SchedRounds, handoffs+res.SchedHandoffs
	}
	if float64(handoffs) < 0.99*float64(rounds) {
		b.Fatalf("%d hand-offs over %d rounds: the rounds are not switching threads", handoffs, rounds)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(handoffs), "ns/switch")
}

// BenchmarkRecorderPerEvent measures the recorder fast path for each
// stock policy over a synthetic event stream. No policy copies an event as
// it passes: capture projects the full-level ones out of the run's trace,
// so perfect costs a policy call and the event's pricing; once a policy has
// left an event out, it also keeps one trace index per full event.
func BenchmarkRecorderPerEvent(b *testing.B) {
	models := []record.Model{record.Perfect, record.Value, record.Output, record.Failure}
	for _, model := range models {
		model := model
		b.Run(model.String(), func(b *testing.B) {
			b.ReportAllocs()
			m := vm.New(vm.Config{})
			rec := record.NewRecorder(m, record.PolicyFor(model))
			e := trace.Event{Kind: trace.EvStore, TID: 1, Site: 2, Obj: 3, Val: trace.Int(42)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Seq = uint64(i)
				rec.OnEvent(&e)
			}
		})
	}
}

// BenchmarkRaceDetector measures happens-before analysis over a recorded
// racy trace.
func BenchmarkRaceDetector(b *testing.B) {
	s, err := workload.ByName("bank")
	if err != nil {
		b.Fatal(err)
	}
	v := s.Exec(scenario.ExecOptions{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		race.Analyze(v.Trace)
	}
}

// BenchmarkCodecEncode measures trace-log serialization throughput.
func BenchmarkCodecEncode(b *testing.B) {
	s, err := workload.ByName("hyperkv-dataloss")
	if err != nil {
		b.Fatal(err)
	}
	v := s.Exec(scenario.ExecOptions{Seed: 19})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Encode(io.Discard, v.Trace); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHyperKVRun measures one full cluster execution (the Fig. 2
// workload) without any recording attached.
func BenchmarkHyperKVRun(b *testing.B) {
	s, err := workload.ByName("hyperkv-dataloss")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := s.Exec(scenario.ExecOptions{Seed: 19})
		if v.Result.Steps == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkDynoKVRun measures one full replicated-KV cluster execution
// (the T-DYNO workload's stale-read cell) without any recording attached.
func BenchmarkDynoKVRun(b *testing.B) {
	s, err := workload.ByName("dynokv-staleread")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed})
		if v.Result.Steps == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkProgen measures generation and one execution of each fuzz
// template over a fixed set of generator seeds — the fuzzer's inner
// loop. The gen set is pinned so every iteration does identical work
// and ns/op is comparable across runs.
func BenchmarkProgen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range eval.FuzzScenarios {
			s, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			for gen := int64(0); gen < 8; gen++ {
				v := s.Exec(scenario.ExecOptions{
					Seed:   s.DefaultSeed,
					Params: scenario.Params{"gen": gen},
				})
				if v.Result.Steps == 0 {
					b.Fatal("empty run")
				}
			}
		}
	}
}

// BenchmarkPerfectReplay measures deterministic replay of a perfect
// recording of the case-study workload.
func BenchmarkPerfectReplay(b *testing.B) {
	s, err := workload.ByName("hyperkv-dataloss")
	if err != nil {
		b.Fatal(err)
	}
	eng, ctx := New(), context.Background()
	rec, _, err := eng.Record(ctx, s, Perfect, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Replay(ctx, s, rec, ReplayOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Ok {
			b.Fatalf("replay failed: %s", res.Note)
		}
	}
}

// benchLongRecording records a long-trace production run (a scaled-up
// bank) under the perfect model, checkpointed every interval events
// (0 = no checkpoints).
func benchLongRecording(b *testing.B, interval int64) (*Scenario, *Recording) {
	b.Helper()
	s, err := workload.ByName("bank")
	if err != nil {
		b.Fatal(err)
	}
	rec, _, err := core.Record(s, record.Perfect, core.Options{
		Params:             scenario.Params{"transfers": 400},
		CheckpointInterval: interval,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s, rec
}

// BenchmarkCheckpointSeek measures time-travel latency: positioning a
// replay at 90% of a long trace, with checkpoints (restore + short
// scheduled suffix) against without (scheduled replay of the whole
// prefix). The T-CKPT table records the deterministic event counts behind
// these timings.
func BenchmarkCheckpointSeek(b *testing.B) {
	for _, cfg := range []struct {
		name     string
		interval int64
	}{{"checkpointed", 1024}, {"from-start", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			s, rec := benchLongRecording(b, cfg.interval)
			target := rec.EventCount * 9 / 10
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess, err := replay.Seek(s, rec, target, replay.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if sess.Pos() != target {
					b.Fatalf("seek landed at %d, want %d", sess.Pos(), target)
				}
				sess.Close()
			}
		})
	}
}

// BenchmarkFeedReplay measures a restore alone — feed replay of every thread
// body plus the state install, no suffix — at 90% of a long bank and a long
// dynokv run: term (2) of DESIGN.md §5's seek cost model. The restored state
// is checked against a snapshot of the live machine paused at the same
// event; ns/fed-op is per feed entry replayed.
func BenchmarkFeedReplay(b *testing.B) {
	for _, c := range []struct {
		name   string
		params scenario.Params
	}{{"bank", scenario.Params{"transfers": 4000}}, {"dynokv-staleread", scenario.Params{"rounds": 200}}} {
		b.Run(c.name, func(b *testing.B) {
			s, err := workload.ByName(c.name)
			if err != nil {
				b.Fatal(err)
			}
			o := scenario.ExecOptions{Seed: s.DefaultSeed, Params: c.params}
			live := s.Start(o)
			live.Continue(s.Exec(o).Result.Steps * 9 / 10)
			want := live.Snapshot(vm.NoRunningThread)
			feeds, err := checkpoint.Feeds(live.Trace().Events, want.Seq, len(want.Threads))
			live.Finish()
			if err != nil {
				b.Fatal(err)
			}
			fed := 0
			for _, f := range feeds {
				fed += len(f)
			}
			restore := func() *vm.Machine {
				m, err := s.Restore(o, want, feeds)
				if err != nil {
					b.Fatal(err)
				}
				return m
			}
			m := restore()
			if err := want.EqualState(m.Snapshot(vm.NoRunningThread)); err != nil {
				b.Fatalf("restored state differs from the live machine's: %v", err)
			}
			m.Finish()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				restore().Finish()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fed), "ns/fed-op")
		})
	}
}

// BenchmarkFlightRecorder measures the streaming recorder end to end: the
// same scaled-up bank run as benchLongRecording, recorded through segment
// rotation and spill into a temp directory instead of a monolithic
// in-memory Recording. The delta against a checkpointed RecordOnly of the
// same configuration is the flight recorder's pipeline overhead (segment
// codec, feed log, manifest rewrites).
func BenchmarkFlightRecorder(b *testing.B) {
	s, err := workload.ByName("bank")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := flightrec.Record(s, s.DefaultSeed, scenario.Params{"transfers": 400}, flightrec.Options{
			SpillDir: b.TempDir(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Events == 0 || res.Spilled == 0 {
			b.Fatalf("flight recording did not spill: %d events, %d spilled", res.Events, res.Spilled)
		}
	}
}

// BenchmarkSegmentedReplay measures validated replay of a long perfect
// recording: plain sequential replay against segmented replay at several
// worker counts. Segment count tracks the worker budget (a restore costs
// one feed replay of its prefix, so over-segmenting turns wall-clock
// wins into restore work); the speedup at workers>1 on a multi-core host
// is the tentpole claim of the checkpoint subsystem, and EXPERIMENTS.md
// records the measured numbers together with the deterministic
// critical-path accounting from T-CKPT.
func BenchmarkSegmentedReplay(b *testing.B) {
	// First find the trace length, then checkpoint at quarters so the
	// segments match a small worker pool.
	_, plain := benchLongRecording(b, 0)
	s, rec := benchLongRecording(b, int64(plain.EventCount/4))
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := replay.Replay(s, rec, replay.Options{})
			if !res.Ok {
				b.Fatalf("sequential replay failed: %s", res.Note)
			}
		}
	})
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := replay.Segmented(s, rec, replay.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Ok {
					b.Fatalf("segmented replay diverged at %d", res.Mismatch)
				}
			}
		})
	}
}

// BenchmarkSearchCandidates measures what a search allocates per candidate
// it rejects: a 200-candidate output search (no schedule or input forced)
// for output on a stream the program never writes, on one worker, over
// bank and over hyperkv-dataloss, whose simnet mesh gives each machine
// many more channels and threads. The first candidate allocates the
// machine, the trace array and a coroutine per thread, and every rejected
// one hands all three on (see infer.Search), so B/op is what a candidate
// allocates beyond them, not 200 machines, traces and sets of coroutines.
func BenchmarkSearchCandidates(b *testing.B) {
	for _, name := range []string{"bank", "hyperkv-dataloss"} {
		s, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			reject := func(v *scenario.RunView) bool { return len(v.Result.Outputs["never"]) > 0 }
			opts := infer.Options{Budget: 200, BaseSeed: 7, Workers: 1}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := infer.Search(s, reject, opts)
				if out.Ok || out.Err != nil || out.Attempts != opts.Budget {
					b.Fatalf("ok=%v err=%v attempts=%d, want %d rejections", out.Ok, out.Err, out.Attempts, opts.Budget)
				}
			}
		})
	}
}
