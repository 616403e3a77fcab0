package vm

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"debugdet/internal/trace"
)

// The full scan the maintained enabled set replaced stays here as its
// reference: every scheduling round of every machine this test binary runs
// is compared with it, and the first difference fails the binary (and, via
// EnabledSetMismatch, the test that checks for it).

// scanEnabled is the reference: evaluate every live thread, in ID order.
func (m *Machine) scanEnabled() []*Thread {
	var out []*Thread
	for _, t := range m.threads {
		if !t.done && m.enabled(t) {
			out = append(out, t)
		}
	}
	return out
}

var (
	roundsCompared atomic.Uint64
	firstMismatch  atomic.Pointer[string]
)

func compareWithScan(m *Machine) {
	roundsCompared.Add(1)
	want := m.scanEnabled()
	for i := 0; i < len(want) || i < len(m.ready); i++ {
		if i < len(want) && i < len(m.ready) && want[i] == m.ready[i] {
			continue
		}
		who := func(ts []*Thread) string {
			if i < len(ts) {
				return fmt.Sprintf("thread %d (%s, %s)", ts[i].id, ts[i].name, m.describePending(ts[i]))
			}
			return "nothing"
		}
		msg := fmt.Sprintf("enabled set differs from the full scan at seq %d, clock %d, position %d: scan has %s, maintained set has %s (%d vs %d enabled)",
			m.seq, m.clock, i, who(want), who(m.ready), len(want), len(m.ready))
		firstMismatch.CompareAndSwap(nil, &msg)
		return
	}
}

func init() { roundHook = compareWithScan }

// EnabledSetMismatch describes the first round on which a machine's
// maintained enabled set differed from the full scan, or "" if none has.
func EnabledSetMismatch() string {
	if s := firstMismatch.Load(); s != nil {
		return *s
	}
	return ""
}

// RoundsCompared is how many rounds have been compared so far, so a test can
// show that the comparison ran over what it executed.
func RoundsCompared() uint64 { return roundsCompared.Load() }

// ScanEnabledIDs returns the full scan's verdict on a paused machine.
func (m *Machine) ScanEnabledIDs() []int {
	var ids []int
	for _, t := range m.scanEnabled() {
		ids = append(ids, int(t.id))
	}
	return ids
}

// RoundLog is a Scheduler that delegates to another and logs every
// scheduling round it is asked to decide: m.Seq() at pick time, the IDs of
// the enabled set it was offered and the pick. A round the inner scheduler
// refuses (nil: the machine stops diverged) is not logged.
type RoundLog struct {
	Scheduler
	Rounds []Round
}

// Round is one logged scheduling decision.
type Round struct {
	Seq     uint64
	Enabled []trace.ThreadID
	Pick    trace.ThreadID
}

// Pick implements Scheduler.
func (l *RoundLog) Pick(m *Machine, enabled []*Thread) *Thread {
	ids := make([]trace.ThreadID, len(enabled))
	for i, t := range enabled {
		ids[i] = t.id
	}
	t := l.Scheduler.Pick(m, enabled)
	if t != nil {
		l.Rounds = append(l.Rounds, Round{Seq: m.Seq(), Enabled: ids, Pick: t.id})
	}
	return t
}

// DisableInline turns the inline fast path off on a machine that has not
// started, for tests outside the package that run the corpus both ways.
func (m *Machine) DisableInline() { m.cfg.disableInline = true }

func TestMain(m *testing.M) {
	code := m.Run()
	if s := EnabledSetMismatch(); s != "" {
		fmt.Fprintln(os.Stderr, "FAIL:", s)
		code = 1
	}
	os.Exit(code)
}
