package vm

import (
	"fmt"

	"debugdet/internal/trace"
)

// applyOp executes t's pending operation against machine state, emits the
// corresponding event, and deposits the result in t. The caller guarantees
// the op is enabled. All shared state is mutated here, by the driver or the
// one thread it has switched to, so the VM needs no internal locking.
func (m *Machine) applyOp(t *Thread) {
	req := &t.pending
	t.result = trace.Nil
	t.resultOK = true
	m.ran = t // pickNext registers the op it parks on next

	switch req.code {
	case opLoad:
		c := &m.cells[req.obj]
		t.result = c.slot.val
		t.taint |= c.slot.taint
		m.emit(t, trace.EvLoad, req.site, req.obj, c.slot.val, c.slot.taint)

	case opStore:
		c := &m.cells[req.obj]
		v := req.val
		if req.msg == "add" {
			v = trace.Int(c.slot.val.AsInt() + req.val.AsInt())
		}
		c.slot = slot{val: v, taint: t.taint}
		t.result = v
		m.emit(t, trace.EvStore, req.site, req.obj, v, t.taint)

	case opLock:
		mu := &m.mutexes[req.obj]
		if mu.owner != -1 {
			panic("vm: lock applied while held")
		}
		mu.owner = t.id
		m.wake(&mu.waiters, t)
		m.emit(t, trace.EvLock, req.site, req.obj, trace.Nil, trace.TaintNone)

	case opUnlock:
		mu := &m.mutexes[req.obj]
		if mu.owner != t.id {
			m.emit(t, trace.EvCrash, req.site, req.obj,
				trace.Str(fmt.Sprintf("unlock of %s by non-owner %s", mu.name, t.name)), trace.TaintNone)
			return
		}
		mu.owner = -1
		m.wake(&mu.waiters, t)
		m.emit(t, trace.EvUnlock, req.site, req.obj, trace.Nil, trace.TaintNone)

	case opSend:
		ch := &m.chans[req.obj]
		if ch.full() {
			panic("vm: send applied while full")
		}
		ch.push(slot{val: req.val, taint: t.taint})
		m.wake(&ch.waiters, t)
		m.emit(t, trace.EvSend, req.site, req.obj, req.val, t.taint)

	case opTrySend:
		ch := &m.chans[req.obj]
		if ch.full() {
			t.resultOK = false
			m.emit(t, trace.EvYield, req.site, req.obj, trace.Nil, trace.TaintNone)
			return
		}
		ch.push(slot{val: req.val, taint: t.taint})
		m.wake(&ch.waiters, t)
		m.emit(t, trace.EvSend, req.site, req.obj, req.val, t.taint)

	case opRecv:
		ch := &m.chans[req.obj]
		if ch.empty() {
			panic("vm: recv applied while empty")
		}
		m.recv(t, ch)

	case opTryRecv, opRecvTimeout:
		ch := &m.chans[req.obj]
		if ch.empty() {
			// Nothing to take (a RecvTimeout's deadline came): t leaves the list.
			t.resultOK = false
			m.wake(&ch.waiters, t)
			m.emit(t, trace.EvYield, req.site, req.obj, trace.Nil, trace.TaintNone)
			return
		}
		m.recv(t, ch)

	case opInput:
		s := &m.streams[req.obj]
		v := m.inputs.Next(s.name, s.inIndex)
		s.inIndex++
		s.inputs = append(s.inputs, v)
		t.result = v
		t.taint |= s.inTaint
		m.emit(t, trace.EvInput, req.site, req.obj, v, s.inTaint)

	case opOutput:
		s := &m.streams[req.obj]
		s.outputs = append(s.outputs, req.val)
		m.emit(t, trace.EvOutput, req.site, req.obj, req.val, t.taint)

	case opYield:
		m.emit(t, trace.EvYield, req.site, 0, trace.Nil, trace.TaintNone)

	case opSleep:
		// The absolute deadline is machine bookkeeping, not part of the
		// logical execution: replays run on different clocks (recording
		// overhead absent, time gates relaxed) and must still produce
		// identical event sequences.
		m.emit(t, trace.EvSleep, req.site, 0, trace.Nil, trace.TaintNone)

	case opObserve:
		m.emit(t, trace.EvObserve, req.site, req.obj, req.val, t.taint)

	case opSpawn:
		child := m.newThread(req.childName, req.childBody)
		if req.msg == "daemon" {
			child.daemon = true
			m.liveNonDaemon--
		}
		t.result = trace.Int(int64(child.id))
		m.emit(t, trace.EvSpawn, req.site, trace.ObjID(child.id), trace.Str(req.childName), trace.TaintNone)
		if !m.stopped {
			m.startThread(child)
		}

	case opExit:
		t.done = true
		m.live--
		if !t.daemon {
			m.liveNonDaemon--
		}
		m.emit(t, trace.EvExit, req.site, 0, trace.Nil, trace.TaintNone)

	case opFail:
		m.emit(t, trace.EvFail, req.site, 0, trace.Str(req.msg), t.taint)

	case opCrash:
		m.emit(t, trace.EvCrash, req.site, 0, trace.Str(req.msg), t.taint)

	case opPanic:
		t.done = true
		m.live--
		if !t.daemon {
			m.liveNonDaemon--
		}
		m.emit(t, trace.EvCrash, trace.NoSite, 0, trace.Str("panic: "+req.msg), trace.TaintNone)

	case opDiskWrite:
		d := &m.disks[req.obj]
		d.recs = append(d.recs, slot{val: req.val, taint: t.taint})
		t.result = req.val
		m.emit(t, trace.EvDiskWrite, req.site, req.obj, req.val, t.taint)

	case opDiskRead:
		d := &m.disks[req.obj]
		idx := int(req.deadline)
		if idx >= 0 && idx < len(d.recs) {
			s := d.recs[idx]
			t.result = s.val
			t.taint |= s.taint
			m.emit(t, trace.EvDiskRead, req.site, req.obj, s.val, s.taint)
		} else {
			m.emit(t, trace.EvDiskRead, req.site, req.obj, trace.Nil, trace.TaintNone)
		}

	case opDiskFsync:
		d := &m.disks[req.obj]
		d.fsyncs++
		d.durable = d.fsyncDurable(d.fsyncs)
		t.result = trace.Int(int64(d.durable))
		m.emit(t, trace.EvDiskFsync, req.site, req.obj, t.result, trace.TaintNone)

	case opDiskBarrier:
		d := &m.disks[req.obj]
		d.durable = len(d.recs)
		t.result = trace.Int(int64(d.durable))
		m.emit(t, trace.EvDiskBarrier, req.site, req.obj, t.result, trace.TaintNone)

	case opDiskCrash:
		d := &m.disks[req.obj]
		keep, torn := d.crashKeep()
		if torn {
			r := &d.recs[keep-1]
			if r.val.Kind == trace.VBytes && len(r.val.Str) > d.faults.TornBytes {
				r.val.Str = r.val.Str[:d.faults.TornBytes]
			}
		}
		d.recs = d.recs[:keep]
		d.durable = keep
		t.result = trace.Int(int64(keep))
		m.emit(t, trace.EvDiskCrash, req.site, req.obj, t.result, trace.TaintNone)

	//lint:exhaustive-default opNone never reaches apply (threads always park with a real op); the panic guards decode bugs
	default:
		panic(fmt.Sprintf("vm: unknown op code %d", req.code))
	}
}

// recv applies t's receive of the message at the head of ch.
func (m *Machine) recv(t *Thread, ch *chanState) {
	s := ch.pop()
	m.wake(&ch.waiters, t)
	t.result = s.val
	t.taint |= s.taint
	m.emit(t, trace.EvRecv, t.pending.site, t.pending.obj, s.val, s.taint)
}
