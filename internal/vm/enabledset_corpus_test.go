package vm_test

import (
	"hash/fnv"
	"testing"

	"debugdet/internal/progen"
	"debugdet/internal/record"
	"debugdet/internal/replay"
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
	"debugdet/internal/workload"
)

// The maintained enabled set against the full scan (export_test.go compares
// them on every round of every machine this binary runs) over the programs
// the repository has: the corpus under every scheduler, generated programs,
// restores at every checkpoint of a long recording. The tests here only
// have to run things and ask whether a round ever differed.

// ranClean fails the test if a round differed from the full scan, or if fewer
// than want rounds were compared since the count stood at since.
func ranClean(t testing.TB, since, want uint64) {
	t.Helper()
	if s := vm.EnabledSetMismatch(); s != "" {
		t.Fatal(s)
	}
	if n := vm.RoundsCompared() - since; n < want {
		t.Fatalf("%d rounds compared with the full scan, want at least %d: the comparison is not running", n, want)
	}
}

// stepBound keeps schedulers that starve a scenario's progress (round-robin
// over a spin loop) from running to the VM's four-million-event default.
const stepBound = 300000

// roundsHash hashes a round log: every round's seq, enabled IDs and pick.
func roundsHash(rounds []vm.Round) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, r := range rounds {
		put(r.Seq)
		put(uint64(len(r.Enabled)))
		for _, id := range r.Enabled {
			put(uint64(id))
		}
		put(uint64(r.Pick))
	}
	return h.Sum64()
}

// goldenRounds is roundsHash of every corpus scenario's round log at its
// default seed under the default random scheduler, computed with the full
// scan building the enabled set every round (commit a29f317): what
// schedulers are offered, round by round, has not changed.
var goldenRounds = map[string]uint64{
	"sum":              0xf38d3f38cc1ef75c,
	"overflow":         0xd2ed09986aefcba5,
	"msgdrop":          0x2a4ccac1b51f1e41,
	"hyperkv-dataloss": 0x9f67b26b2366ffab,
	"bank":             0xcd330b3a8433a950,
	"deadlock":         0x5f0b50c313541928,
	"dynokv-staleread": 0xd0a6d1e3c290541a,
	"dynokv-resurrect": 0xba4feb013766b454,
	"dynokv-losthint":  0x98e9a8d329a0889f,
	"disk-tornwal":     0xa8fd5fab61d701b9,
	"disk-fsyncloss":   0x92dc651a46f94da0,
	"disk-snapres":     0x0958d5b408f274e1,
	"fuzz-atomicity":   0xd6a822d1903128f5,
	"fuzz-deadlock":    0x76a90291bdae0c66,
	"fuzz-lostmsg":     0xb267b62fc29e0880,
	"fuzz-oversell":    0xd57c2bc9a2ed7d40,
	"fuzz-crashpoint":  0x680bb1019bca85fa,
}

// sketchScheduler runs the thread forced for a sequence number when it is
// enabled and leaves every other pick to base.
type sketchScheduler struct {
	forced map[uint64]trace.ThreadID
	base   vm.Scheduler
}

func (s sketchScheduler) Name() string { return "sketch" }

func (s sketchScheduler) Pick(m *vm.Machine, enabled []*vm.Thread) *vm.Thread {
	if want, ok := s.forced[m.Seq()]; ok {
		for _, t := range enabled {
			if t.ID() == want {
				return t
			}
		}
	}
	return s.base.Pick(m, enabled)
}

// TestEnabledSetCorpusSchedulers runs every corpus scenario under each
// scheduler the repository has — random (whose round log must hash to the
// full scan's), PCT, round-robin, a sketch over random, a strict replay of
// the recorded schedule with the round log on, and the value-guided replay
// scheduler — with the full-scan comparison underneath.
func TestEnabledSetCorpusSchedulers(t *testing.T) {
	for _, s := range workload.All() {
		since := vm.RoundsCompared()
		log := &vm.RoundLog{Scheduler: vm.NewRandomScheduler(s.DefaultSeed)}
		base := s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed, Scheduler: log})
		rounds := log.Rounds
		if got := roundsHash(rounds); got != goldenRounds[s.Name] {
			t.Errorf("%q: 0x%016x, // round log hash; the golden value is 0x%016x", s.Name, got, goldenRounds[s.Name])
		}
		if uint64(len(rounds)) != base.Result.SchedRounds {
			t.Errorf("%s: %d rounds logged, SchedRounds %d", s.Name, len(rounds), base.Result.SchedRounds)
		}
		sketch := map[uint64]trace.ThreadID{}
		for i := 0; i < len(rounds); i += 7 {
			sketch[rounds[i].Seq] = rounds[i].Pick
		}
		for _, sched := range []vm.Scheduler{
			vm.NewPCTScheduler(s.DefaultSeed, base.Result.Steps, 3),
			vm.NewRoundRobinScheduler(),
			sketchScheduler{sketch, vm.NewRandomScheduler(s.DefaultSeed + 1)},
		} {
			s.Exec(scenario.ExecOptions{Seed: s.DefaultSeed, Scheduler: &vm.RoundLog{Scheduler: sched}, MaxSteps: stepBound})
		}

		rec, _, err := record.Record(s, record.Perfect, s.DefaultSeed, nil)
		if err != nil {
			t.Fatal(err)
		}
		inputs, _ := rec.Inputs()
		sched, _ := rec.SchedFrom(0)
		forced := s.Exec(scenario.ExecOptions{
			Seed: rec.Seed, Params: rec.Params, Inputs: inputs, RelaxTime: true,
			Scheduler: &vm.RoundLog{Scheduler: vm.NewReplayScheduler(sched)},
		})
		if !trace.EventsEqual(forced.Trace, base.Trace, true) {
			t.Errorf("%s: forced replay differs from the recorded run", s.Name)
		}
		vrec, _, err := record.Record(s, record.Value, s.DefaultSeed, nil)
		if err != nil {
			t.Fatal(err)
		}
		replay.Replay(s, vrec, replay.Options{})
		ranClean(t, since, 3*uint64(len(rounds)))
	}
}

// TestEnabledSetProgenSeeds: 120 generated programs, 24 of each family.
func TestEnabledSetProgenSeeds(t *testing.T) {
	since := vm.RoundsCompared()
	for seed := int64(0); seed < 120; seed++ {
		p := progen.ForSeed(seed)
		p.Scenario.Exec(scenario.ExecOptions{Seed: p.Seed, Params: p.Params, MaxSteps: stepBound})
	}
	ranClean(t, since, 5000)
}

// TestEnabledSetRestoreAtEveryCheckpoint restores a checkpointed dynokv
// recording at each of its checkpoints — every thread is registered anew
// from the installed state — and continues for a stretch; then replays it in
// two chunks, which adopts a boundary snapshot's counters on the way.
func TestEnabledSetRestoreAtEveryCheckpoint(t *testing.T) {
	s, err := workload.ByName("dynokv-staleread")
	if err != nil {
		t.Fatal(err)
	}
	since := vm.RoundsCompared()
	run, w := record.Run(s, s.DefaultSeed, scenario.Params{"rounds": 30}, 0, 1024)
	rec, _ := record.Project(s, run, w, record.Perfect, record.PolicyFor(record.Perfect))
	if len(rec.Checkpoints) < 10 {
		t.Fatalf("%d checkpoints over %d events", len(rec.Checkpoints), rec.EventCount)
	}
	for _, cp := range rec.Checkpoints {
		sess, err := replay.Seek(s, rec, cp.Seq, replay.Options{})
		if err != nil {
			t.Fatalf("seek %d: %v", cp.Seq, err)
		}
		sess.Continue(cp.Seq + 700)
		if sess.Pos() < min(cp.Seq+700, rec.EventCount) {
			t.Fatalf("seek %d: stopped at %d", cp.Seq, sess.Pos())
		}
		sess.Close()
	}
	res, err := replay.Segmented(s, rec, replay.Options{Workers: 2})
	if err != nil || !res.Ok {
		t.Fatalf("segmented replay: %v, %+v", err, res)
	}
	ranClean(t, since, rec.EventCount+700*uint64(len(rec.Checkpoints)))
}
