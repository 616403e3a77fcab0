package vm

import (
	"math"
	"slices"
)

// The enabled set — the ID-ordered slice of threads whose pending op can be
// applied, handed to the scheduler every round — is maintained across rounds
// (DESIGN.md §1): a thread is re-evaluated only when something enabled(t)
// reads has changed. It parked on a new op (park), an op changed the owner or
// size of the mutex or channel it waits on (wake), the clock reached its
// deadline (wakeTimed), or Restore or AdoptCounters replaced state wholesale.
// enabled(t) stays the one definition of enabledness, level-triggered as a
// scan is. The lists are intrusive and unordered; ready is kept sorted.

// noWake is nextWake when no thread is parked on a deadline.
const noWake = math.MaxUint64

// waitList returns the list of the mutex or channel t's pending op waits on,
// nil when on none (a relaxed RecvTimeout never waits).
func (m *Machine) waitList(t *Thread) **Thread {
	switch c := t.pending.code; {
	case t.done:
	case c == opLock:
		return &m.mutexes[t.pending.obj].waiters
	case c == opSend, c == opRecv, c == opRecvTimeout && !m.cfg.RelaxTime:
		return &m.chans[t.pending.obj].waiters
	}
	return nil
}

// park registers the op t has just parked on: t joins the wait list of the
// mutex or channel the op is conditional on, and is re-evaluated.
func (m *Machine) park(t *Thread) {
	if head := m.waitList(t); head != nil {
		t.waitNext, *head = *head, t
	}
	m.reevaluate(t)
}

// wake walks the wait list of a mutex or channel the running thread's op has
// just changed and re-evaluates the waiters. The running thread leaves the
// list instead: every op that waits walks its list when it is applied.
func (m *Machine) wake(head **Thread, running *Thread) {
	for at := head; *at != nil; {
		t := *at
		if t == running {
			*at, t.waitNext = t.waitNext, nil
			continue
		}
		m.reevaluate(t)
		at = &t.waitNext
	}
}

// awaitsClock reports whether t is parked on a deadline ahead of the clock.
func (t *Thread) awaitsClock() bool {
	return !t.done && !t.ready && (t.pending.code == opSleep || t.pending.code == opRecvTimeout)
}

// reevaluate brings t's place in the ready slice in line with enabled(t),
// and puts t on the timed list if it now waits for the clock.
func (m *Machine) reevaluate(t *Thread) {
	en := false
	if !t.done {
		m.schedEvals++
		en = m.enabled(t)
	}
	if en != t.ready {
		t.ready = en
		i, _ := slices.BinarySearchFunc(m.ready, t, func(r, t *Thread) int { return int(r.id) - int(t.id) })
		if en {
			m.ready = slices.Insert(m.ready, i, t)
		} else {
			m.ready = slices.Delete(m.ready, i, i+1)
		}
	}
	if t.awaitsClock() {
		if !t.timed {
			t.timed, t.timedNext, m.timed = true, m.timed, t
		}
		m.nextWake = min(m.nextWake, t.pending.deadline)
	}
}

// wakeTimed walks the timed list: threads whose deadline has come are
// re-evaluated, those that no longer wait for the clock leave the list (here,
// lazily), and nextWake becomes exactly the earliest deadline left.
func (m *Machine) wakeTimed() {
	m.nextWake = noWake
	for at := &m.timed; *at != nil; {
		t := *at
		if t.awaitsClock() && t.pending.deadline <= m.clock {
			m.reevaluate(t)
		}
		if t.awaitsClock() {
			m.nextWake = min(m.nextWake, t.pending.deadline)
			at = &t.timedNext
		} else {
			*at, t.timedNext, t.timed = t.timedNext, nil, false
		}
	}
}
