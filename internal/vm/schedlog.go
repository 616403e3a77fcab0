package vm

import "debugdet/internal/trace"

// SchedRound records one scheduling decision of a live execution: the
// event sequence number the decision was taken at, the enabled set the
// scheduler saw (thread IDs, ascending), and the thread it picked. A
// machine configured with Config.LogRounds appends one SchedRound per
// pick; the resulting log is what lets equivalence-pruned search dry-run
// a different scheduler over a finished execution without re-executing it
// (see SchedSim).
type SchedRound struct {
	// Seq is m.Seq() at pick time: the sequence number of the event this
	// decision produced.
	Seq uint64
	// Enabled is the enabled set presented to the scheduler, by thread
	// ID in ascending order.
	Enabled []trace.ThreadID
	// Pick is the chosen thread.
	Pick trace.ThreadID
}

// Rounds returns the scheduling-round log collected so far (nil unless
// Config.LogRounds was set). Read it only while the machine is paused or
// finished. The log is append-only: callers may retain slices of it.
func (m *Machine) Rounds() []SchedRound { return m.rounds }

// logRound appends one decision to the round log. Called from pickNext —
// the single funnel both the machine loop and the inline fast path route
// scheduling decisions through — so the log sees every decision exactly
// once, in order.
func (m *Machine) logRound(enabled []*Thread, pick *Thread) {
	ids := make([]trace.ThreadID, len(enabled))
	for i, t := range enabled {
		ids[i] = t.id
	}
	m.rounds = append(m.rounds, SchedRound{Seq: m.seq, Enabled: ids, Pick: pick.id})
}

// SchedSim replays scheduling decisions against a Scheduler without a
// live machine: it fabricates threads that carry only their IDs and a
// machine that carries only its event sequence number — exactly the
// state the Scheduler contract allows a Pick to read. Equivalence-pruned
// search uses it to check whether a candidate's scheduler takes every
// decision a retained execution's rounds recorded (infer.Options.Fork).
//
// A SchedSim is not safe for concurrent use; create one per goroutine
// (it exists to be cheap: fake threads are cached across calls).
type SchedSim struct {
	m       Machine
	threads []*Thread
	buf     []*Thread
}

// NewSchedSim returns an empty simulator.
func NewSchedSim() *SchedSim { return &SchedSim{} }

// thread returns the cached fake thread for an ID, growing the cache on
// demand. IDs are dense (spawn order), so a slice suffices.
func (ss *SchedSim) thread(id trace.ThreadID) *Thread {
	for int(id) >= len(ss.threads) {
		ss.threads = append(ss.threads, &Thread{id: trace.ThreadID(len(ss.threads))})
	}
	return ss.threads[id]
}

// Pick asks s for its decision at the given sequence number over the
// given enabled set (ascending thread IDs, as a live machine presents
// it), advancing s's internal state exactly as a live pick would. The
// second result is false when the scheduler cannot continue (a replay
// scheduler off its log) — the live machine would stop with
// OutcomeDiverged there.
func (ss *SchedSim) Pick(s Scheduler, seq uint64, enabled []trace.ThreadID) (trace.ThreadID, bool) {
	ss.m.seq = seq
	ss.buf = ss.buf[:0]
	for _, id := range enabled {
		ss.buf = append(ss.buf, ss.thread(id))
	}
	t := s.Pick(&ss.m, ss.buf)
	if t == nil {
		return 0, false
	}
	return t.id, true
}
