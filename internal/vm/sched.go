package vm

import (
	"math/rand"

	"debugdet/internal/trace"
)

// Scheduler picks the next thread to run among the enabled set. enabled is
// nonempty and sorted by thread ID. Returning nil signals that the
// scheduler cannot continue (replay divergence); the machine then stops
// with OutcomeDiverged.
//
// A Pick must depend only on the scheduler's own state, m.Seq(), and the
// IDs of the enabled threads — never on other machine or thread state.
// Every built-in scheduler obeys this.
type Scheduler interface {
	Name() string
	Pick(m *Machine, enabled []*Thread) *Thread
}

// RoundRobinScheduler runs threads in ID order, advancing on every pick.
// It is fully deterministic with no seed and useful as a baseline and in
// tests.
type RoundRobinScheduler struct {
	next int
}

// NewRoundRobinScheduler returns a round-robin scheduler.
func NewRoundRobinScheduler() *RoundRobinScheduler { return &RoundRobinScheduler{} }

// Name implements Scheduler.
func (s *RoundRobinScheduler) Name() string { return "roundrobin" }

// Pick implements Scheduler.
func (s *RoundRobinScheduler) Pick(_ *Machine, enabled []*Thread) *Thread {
	// Choose the first enabled thread with ID >= next, wrapping around.
	for _, t := range enabled {
		if int(t.id) >= s.next {
			s.next = int(t.id) + 1
			return t
		}
	}
	t := enabled[0]
	s.next = int(t.id) + 1
	return t
}

// seeded is a scheduler that draws from a generator of its own. Its
// constructor leaves the generator unallocated, so that Recycle can hand
// it the one a dead machine's scheduler gives up (see adopt): start seeds
// rng, or a new generator when rng is nil, and takes the scheduler's
// initial draws from it, unless the scheduler has started already; stop
// gives the generator up, nil when the scheduler never started. A
// scheduler no machine started starts on its first Pick.
type seeded interface {
	start(rng *rand.Rand)
	stop() *rand.Rand
}

// adopt hands dead's generator to s when both are seeded schedulers:
// reseeding it draws exactly the stream of a new generator of s's seed,
// without the 4.9 KB a new one allocates.
func adopt(s, dead Scheduler) {
	to, ok := s.(seeded)
	from, fromOK := dead.(seeded)
	if !ok || !fromOK || s == dead {
		return
	}
	if rng := from.stop(); rng != nil {
		to.start(rng)
	}
}

// RandomScheduler picks uniformly at random among enabled threads using a
// seeded generator: the production scheduler model. Same seed, same
// program, same inputs — same execution.
type RandomScheduler struct {
	seed int64
	rng  *rand.Rand // nil until the scheduler starts (see seeded)
}

// NewRandomScheduler returns a seeded random scheduler.
func NewRandomScheduler(seed int64) *RandomScheduler {
	return &RandomScheduler{seed: seed}
}

// Name implements Scheduler.
func (s *RandomScheduler) Name() string { return "random" }

func (s *RandomScheduler) start(rng *rand.Rand) {
	if s.rng == nil {
		s.rng = reseed(rng, s.seed)
	}
}

func (s *RandomScheduler) stop() (rng *rand.Rand) {
	rng, s.rng = s.rng, nil
	return rng
}

// Pick implements Scheduler.
func (s *RandomScheduler) Pick(_ *Machine, enabled []*Thread) *Thread {
	if s.rng == nil {
		s.start(nil)
	}
	return enabled[s.rng.Intn(len(enabled))]
}

// PCTScheduler implements the probabilistic concurrency testing strategy:
// each thread gets a distinct random priority on arrival; the
// highest-priority enabled thread runs; at a small number of random change
// points the running thread's priority drops below everyone else's. PCT
// finds rare orderings with provable probability and is used by the
// inference engine to diversify its search.
type PCTScheduler struct {
	seed         int64
	expectedLen  uint64
	changePoints int
	rng          *rand.Rand // nil until the scheduler starts (see seeded)
	// prio is dense, indexed by thread ID (IDs are assigned in spawn
	// order, so the slice stays compact). prioUnset marks threads that
	// have not arrived yet.
	prio []int
	// used tracks assigned ranks so arrivals redraw on collision:
	// priorities are guaranteed distinct, making every pick a unique
	// maximum (ties would make the ordering depend on iteration order).
	used        map[int]struct{}
	changeAt    []uint64
	lowWatermrk int
}

// prioUnset marks a thread with no assigned priority. Assigned ranks are
// always positive and demotions are always negative, so the sentinel can
// collide with neither.
const prioUnset = 0

// pctRankSpace is the rank space arrivals draw from. It is much larger
// than any plausible thread count, so collisions (and hence redraws) are
// rare, but the redraw loop makes distinctness unconditional.
const pctRankSpace = 1000000

// NewPCTScheduler returns a PCT scheduler with the given number of
// priority-change points spread over an expected execution length.
func NewPCTScheduler(seed int64, expectedLen uint64, changePoints int) *PCTScheduler {
	return &PCTScheduler{
		seed:         seed,
		expectedLen:  max(expectedLen, 1),
		changePoints: changePoints,
		used:         make(map[int]struct{}, 8),
	}
}

// Name implements Scheduler.
func (s *PCTScheduler) Name() string { return "pct" }

// start draws the change points, the generator's first draws.
func (s *PCTScheduler) start(rng *rand.Rand) {
	if s.rng != nil {
		return
	}
	s.rng = reseed(rng, s.seed)
	for i := 0; i < s.changePoints; i++ {
		s.changeAt = append(s.changeAt, uint64(s.rng.Int63n(int64(s.expectedLen))))
	}
}

func (s *PCTScheduler) stop() (rng *rand.Rand) {
	rng, s.rng = s.rng, nil
	return rng
}

// rank draws a fresh, distinct, positive priority rank.
func (s *PCTScheduler) rank() int {
	for {
		r := s.rng.Intn(pctRankSpace) + 1
		if _, taken := s.used[r]; !taken {
			s.used[r] = struct{}{}
			return r
		}
	}
}

// changePoint reports whether seq is one of the priority-change points.
// The set is tiny (typically 3), so a linear scan beats a map lookup on
// this per-pick path.
func (s *PCTScheduler) changePoint(seq uint64) bool {
	for _, at := range s.changeAt {
		if at == seq {
			return true
		}
	}
	return false
}

// Pick implements Scheduler.
func (s *PCTScheduler) Pick(m *Machine, enabled []*Thread) *Thread {
	if s.rng == nil {
		s.start(nil)
	}
	// Assign priorities lazily on arrival; each arrival gets a distinct
	// random rank (enabled is in thread-ID order, so assignment order is
	// deterministic).
	for _, t := range enabled {
		for int(t.id) >= len(s.prio) {
			s.prio = append(s.prio, prioUnset)
		}
		if s.prio[t.id] == prioUnset {
			s.prio[t.id] = s.rank()
		}
	}
	best := enabled[0]
	for _, t := range enabled[1:] {
		if s.prio[t.id] > s.prio[best.id] {
			best = t
		}
	}
	if s.changePoint(m.seq) {
		s.lowWatermrk--
		s.prio[best.id] = s.lowWatermrk
	}
	return best
}

// ReplayScheduler forces the thread order of a recorded schedule. Each
// pick runs the thread the log names; when that thread is not enabled the
// replay has diverged: Pick returns nil and the machine stops with
// OutcomeDiverged at DivergedAt. Past the log's end a run continues only
// while one thread is enabled (the unique-continuation rule).
type ReplayScheduler struct {
	schedule []trace.ThreadID
	pos      int
}

// NewReplayScheduler returns a scheduler that replays the given thread
// order strictly.
func NewReplayScheduler(schedule []trace.ThreadID) *ReplayScheduler {
	return &ReplayScheduler{schedule: schedule}
}

// Name implements Scheduler.
func (s *ReplayScheduler) Name() string { return "replay" }

// Pos returns how many decisions have been consumed.
func (s *ReplayScheduler) Pos() int { return s.pos }

// Pick implements Scheduler.
func (s *ReplayScheduler) Pick(m *Machine, enabled []*Thread) *Thread {
	if s.pos < len(s.schedule) {
		want := s.schedule[s.pos]
		for _, t := range enabled {
			if t.id == want {
				s.pos++
				return t
			}
		}
		return nil
	}
	if len(enabled) == 1 {
		// Unique continuation: allow runs to finish deterministically
		// past the recorded horizon.
		return enabled[0]
	}
	return nil
}
