// Package progen is a seeded scenario fuzzer: it generates valid
// concurrent VM workloads — threads, shared cells, locks, channels,
// simnet message exchanges and simulated-disk WALs — with an injected bug
// from one of five templates (atomicity violation, lock-order deadlock,
// lost message, oversell race, crash-point durability loss), packaged as
// ordinary scenario.Scenario values.
//
// The paper's claim that debug determinism is the sweet spot for replay
// debugging is only credible if it holds beyond a handful of hand-authored
// scenarios; progen delivers breadth mechanically. Every generated program
// is a deterministic function of a single generator seed carried in the
// scenario parameter "gen": the same seed always yields the same object
// graph, the same thread bodies and the same bug, so generated scenarios
// record, replay and evaluate exactly like the hand-written corpus. The
// five seed-parameterized scenarios (fuzz-atomicity, fuzz-deadlock,
// fuzz-lostmsg, fuzz-oversell, fuzz-crashpoint) are registered in the
// workload catalog with pinned defaults known to manifest their failures;
// any other generator seed is reproducible by overriding
// Params{"gen": seed}.
//
// The companion differential-oracle harness (oracle.go) checks the
// system's metamorphic invariants over generated programs: replay
// reproduction, DF monotonicity up the model hierarchy, worker-count
// invariance of inference, and shrink soundness. Native go test -fuzz
// targets drive both the generator and the oracles from fuzzer-provided
// seeds (fuzz_test.go).
package progen

import (
	"debugdet/internal/scenario"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Family identifies one bug template the generator can inject.
type Family uint8

// Bug-template families.
const (
	// Atomicity is an unlocked read-modify-write on a shared counter:
	// concurrent increments interleave in the window between load and
	// store and lose updates.
	Atomicity Family = iota
	// LockCycle is an ABBA lock-order inversion: two generated threads
	// acquire the same pair of mutexes in opposite orders.
	LockCycle
	// LostMessage is a lossy simnet link: the generated client/server
	// exchange drops messages with a seed-chosen probability.
	LostMessage
	// Oversell is a TOCTOU check-then-act race: buyer threads check a
	// shared remaining-capacity cell, yield, then decrement it, so
	// concurrent buyers oversell the capacity.
	Oversell
	// CrashPoint is an early-acknowledged WAL write: a writer appends
	// framed records to a simulated disk and acknowledges them before the
	// group fsync makes them durable; a crash injected at an input-chosen
	// point loses acknowledged records.
	CrashPoint
)

var familyNames = [...]string{"atomicity", "deadlock", "lostmsg", "oversell", "crashpoint"}

// String returns the family's short name.
func (f Family) String() string {
	if int(f) < len(familyNames) {
		return familyNames[f]
	}
	return "family(?)"
}

// Families lists every bug-template family.
func Families() []Family {
	return []Family{Atomicity, LockCycle, LostMessage, Oversell, CrashPoint}
}

// Program pairs a generated scenario with everything needed to execute
// it reproducibly: the family scenario, the parameter set carrying the
// generator seed, and a scheduler seed derived from it.
type Program struct {
	Family  Family
	GenSeed int64
	// Seed is the scheduler seed oracles use for the production run.
	Seed     int64
	Scenario *scenario.Scenario
	Params   scenario.Params
}

// Normalize folds a raw seed into the generator's canonical non-negative
// seed space. Every consumer of fuzzer-provided seeds (ForSeed, the
// figures -gen hook) applies the same fold, so a raw seed names the same
// program everywhere.
func Normalize(seed int64) int64 {
	if seed < 0 {
		return -(seed + 1) // fold without overflowing MinInt64
	}
	return seed
}

// ForSeed maps a raw generator seed (for example one supplied by go test
// -fuzz) onto a program: the family is the seed's residue, the generator
// seed parameterizes the family's builder, and the scheduler seed is an
// independent hash of it. Negative seeds are folded positive (Normalize)
// so fuzzers may supply arbitrary int64 values.
func ForSeed(seed int64) Program {
	g := Normalize(seed)
	f := Families()[g%int64(len(Families()))]
	return Program{
		Family:   f,
		GenSeed:  g,
		Seed:     1 + splitmix(uint64(g)^0xd1f7)%997, // small, nonzero
		Scenario: Scenario(f),
		Params:   scenario.Params{"gen": g},
	}
}

// Scenario returns a fresh instance of the family's seed-parameterized
// scenario. The Build function re-generates the program from the "gen"
// parameter, so one scenario value covers the family's whole seed space.
func Scenario(f Family) *scenario.Scenario {
	switch f {
	case Atomicity:
		return atomicityScenario()
	case LockCycle:
		return lockCycleScenario()
	case LostMessage:
		return lostMessageScenario()
	case Oversell:
		return oversellScenario()
	default:
		return crashPointScenario()
	}
}

// Corpus returns the five seed-parameterized fuzz scenarios with their
// pinned failing defaults, in family order — the generated slice of the
// workload catalog.
func Corpus() []*scenario.Scenario {
	out := make([]*scenario.Scenario, 0, len(Families()))
	for _, f := range Families() {
		out = append(out, Scenario(f))
	}
	return out
}

// FixedVariants returns the healthy builds of the fuzz families — the
// same generated programs after the fix predicate is enforced (locked
// read-modify-write, ordered lock acquisition, loss-free link, atomic
// check-then-act, ack-after-fsync). They are resolvable by name but excluded from the
// corpus, mirroring the hand-written families.
func FixedVariants() []*scenario.Scenario {
	var out []*scenario.Scenario
	for _, f := range Families() {
		s := Scenario(f)
		fixed := *s
		fixed.Name = s.Name + "-fixed"
		fixed.Description = "healthy build of " + s.Name + " (fix applied)"
		fixed.DefaultParams = s.DefaultParams.Clone(scenario.Params{"fixed": 1})
		out = append(out, &fixed)
	}
	return out
}

// rng is the generator's deterministic random stream (splitmix64). Every
// structural decision a builder takes is drawn from it in a fixed order,
// so a generator seed fully determines the program.
type rng struct{ s uint64 }

func newRng(seed int64) *rng { return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc909} }

func splitmix(x uint64) int64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn draws a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between draws a uniform value in [lo, hi] inclusive.
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// hashInputs is the production input source generated scenarios share:
// deterministic in (seed, stream, index), unbounded draws.
func hashInputs(seed int64, _ scenario.Params) vm.InputSource {
	return vm.InputSourceFunc(func(stream string, index int) trace.Value {
		return trace.Int(vm.HashValue(seed, stream, index))
	})
}
