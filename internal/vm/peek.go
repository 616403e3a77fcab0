package vm

import "debugdet/internal/trace"

// PendingOp names the event a parked thread's next operation would emit if
// applied in the current machine state: its kind, site and object. The
// value-deterministic replayer uses it to tell a thread's logged operations
// from its unlogged ones; it checks the values themselves as the machine
// emits them.
type PendingOp struct {
	Kind trace.EventKind
	Site trace.SiteID
	Obj  trace.ObjID
}

// PeekEvent names the event thread t would emit if its pending op were
// applied now: the op's kind from opTable, a yield for a try-variant its
// channel cannot serve. The answer is only meaningful while t is parked and
// its op is enabled; ok is false for a finished or idle thread. Peeking
// never mutates machine state.
func (m *Machine) PeekEvent(t *Thread) (PendingOp, bool) {
	req := &t.pending
	if t.done || req.code == opNone {
		return PendingOp{}, false
	}
	op := &opTable[req.code]
	p := PendingOp{Kind: op.kind, Site: req.site, Obj: req.obj}
	if op.try {
		if ch := &m.chans[req.obj]; op.kind == trace.EvSend && ch.full() || op.kind == trace.EvRecv && ch.empty() {
			p.Kind = trace.EvYield
		}
	}
	return p, true
}

// ThreadName returns the name of the thread with the given ID, or "".
func (m *Machine) ThreadName(id trace.ThreadID) string {
	if int(id) < len(m.threads) {
		return m.threads[id].name
	}
	return ""
}
