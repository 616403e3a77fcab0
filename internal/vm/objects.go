package vm

import (
	"fmt"
	"maps"
	"slices"

	"debugdet/internal/trace"
)

// slot is a value together with its provenance, stored in memory cells and
// channel buffers.
type slot struct {
	val   trace.Value
	taint trace.Taint
}

// cellState is one shared-memory cell.
type cellState struct {
	name string
	slot slot
}

// mutexState is one mutex. owner is -1 when the mutex is free; waiters are
// the threads parked on a Lock of it (enabledset.go).
type mutexState struct {
	name    string
	owner   trace.ThreadID
	waiters *Thread
}

// chanState is one FIFO channel with a fixed capacity (capacity 0 is not
// supported; the VM has no rendezvous channels — use capacity 1 for
// near-synchronous handoff). The buffer is a compacting queue: pop
// advances a head index instead of reslicing, and push reuses the array
// once it drains (or compacts in place when it would otherwise grow), so
// steady-state channel traffic allocates nothing.
type chanState struct {
	name    string
	cap     int
	buf     []slot
	head    int
	waiters *Thread // parked on a Send, Recv or strict-time RecvTimeout of it
}

func (c *chanState) size() int   { return len(c.buf) - c.head }
func (c *chanState) full() bool  { return c.size() >= c.cap }
func (c *chanState) empty() bool { return c.size() == 0 }

func (c *chanState) front() slot { return c.buf[c.head] }

// push appends s. The first push into a buffer too small for min(cap, 8)
// slots (none yet, or a recycled slot's) allocates that many, and push
// compacts in place, so deep channels grow at most once per high-water mark.
func (c *chanState) push(s slot) {
	switch {
	case len(c.buf) == 0 && cap(c.buf) < min(c.cap, 8):
		c.buf = make([]slot, 0, min(c.cap, 8))
	case len(c.buf) == cap(c.buf) && c.head > 0:
		n := copy(c.buf, c.buf[c.head:])
		c.buf = c.buf[:n]
		c.head = 0
	}
	c.buf = append(c.buf, s)
}

func (c *chanState) pop() slot {
	s := c.buf[c.head]
	c.buf[c.head] = slot{} // drop value references for GC
	c.head++
	if c.head == len(c.buf) {
		c.buf = c.buf[:0]
		c.head = 0
	}
	return s
}

// streamState is one input or output stream connecting the program to its
// environment.
type streamState struct {
	name    string
	inIndex int           // next input index to consume
	inputs  []trace.Value // inputs consumed so far, in consumption order
	outputs []trace.Value // outputs emitted so far
	inTaint trace.Taint   // taint class applied to inputs from this stream
}

// NewCell registers a shared-memory cell with an initial value and returns
// its object ID. Cells must be created before Run.
func (m *Machine) NewCell(name string, init trace.Value) trace.ObjID {
	m.checkSetup("NewCell")
	id := trace.ObjID(len(m.cells))
	m.cells = append(m.cells, cellState{name: name, slot: slot{val: init}})
	if m.cellIDs == nil {
		m.cellIDs = make(map[string]trace.ObjID)
	}
	m.cellIDs[name] = id
	return id
}

// CellID resolves a cell by its registered name. Evaluation predicates use
// it to inspect final state by name.
func (m *Machine) CellID(name string) (trace.ObjID, bool) {
	id, ok := m.cellIDs[name]
	return id, ok
}

// CellByName returns the current value of the named cell (Nil when the
// name is unknown).
func (m *Machine) CellByName(name string) trace.Value {
	if id, ok := m.cellIDs[name]; ok {
		return m.CellValue(id)
	}
	return trace.Nil
}

// NewCells registers n cells named name[0..n) and returns their IDs.
func (m *Machine) NewCells(name string, n int, init trace.Value) []trace.ObjID {
	ids := make([]trace.ObjID, n)
	for i := range ids {
		ids[i] = m.NewCell(fmt.Sprintf("%s[%d]", name, i), init)
	}
	return ids
}

// NewMutex registers a mutex and returns its object ID.
func (m *Machine) NewMutex(name string) trace.ObjID {
	m.checkSetup("NewMutex")
	id := trace.ObjID(len(m.mutexes))
	m.mutexes = append(m.mutexes, mutexState{name: name, owner: -1})
	return id
}

// NewChan registers a FIFO channel with the given capacity (minimum 1) and
// returns its object ID.
func (m *Machine) NewChan(name string, capacity int) trace.ObjID {
	m.checkSetup("NewChan")
	if capacity < 1 {
		capacity = 1
	}
	id := trace.ObjID(len(m.chans))
	// A recycled machine's earlier run left a buffer in this slot: reuse it.
	// Otherwise the first push allocates one.
	var buf []slot
	if int(id) < cap(m.chans) {
		buf = m.chans[:id+1][id].buf[:0]
	}
	m.chans = append(m.chans, chanState{name: name, cap: capacity, buf: buf})
	return id
}

// Stream returns the object ID for a named environment stream, registering
// it on first use with no input taint. Streams may be registered lazily.
func (m *Machine) Stream(name string) trace.ObjID {
	if id, ok := m.streamIDs[name]; ok {
		return id
	}
	id := trace.ObjID(len(m.streams))
	// A recycled machine's earlier run left histories in this slot: append
	// into them. Otherwise the first input or output allocates.
	st := streamState{name: name}
	if int(id) < cap(m.streams) {
		old := &m.streams[:id+1][id]
		st.inputs, st.outputs = old.inputs[:0], old.outputs[:0]
	}
	m.streams = append(m.streams, st)
	m.streamIDs[name] = id
	return id
}

// Reserve makes room in m's tables for chans more channels and streams
// more streams, so a program that declares many at once (a simnet mesh)
// grows each table, and the stream name index, once rather than one
// doubling at a time. It does nothing to a table whose capacity already
// holds them, as a recycled machine's or a restored one's usually does.
func Reserve(m *Machine, chans, streams int) {
	if cap(m.chans)-len(m.chans) < chans {
		m.chans = slices.Grow(m.chans, chans)
	}
	if cap(m.streams)-len(m.streams) >= streams {
		return
	}
	m.streams = slices.Grow(m.streams, streams)
	ids := make(map[string]trace.ObjID, len(m.streams)+streams)
	maps.Copy(ids, m.streamIDs)
	m.streamIDs = ids
}

// DeclareStream registers a stream and sets the taint class its inputs
// carry. Use trace.TaintData for bulk payload sources, trace.TaintControl
// for configuration and metadata, trace.TaintEnv for environment events
// such as fault injection.
func (m *Machine) DeclareStream(name string, taint trace.Taint) trace.ObjID {
	id := m.Stream(name)
	m.streams[id].inTaint = taint
	return id
}

// CellName returns the registered name of a cell.
func (m *Machine) CellName(id trace.ObjID) string {
	if int(id) < len(m.cells) {
		return m.cells[id].name
	}
	return ""
}

// MutexName returns the registered name of a mutex.
func (m *Machine) MutexName(id trace.ObjID) string {
	if int(id) < len(m.mutexes) {
		return m.mutexes[id].name
	}
	return ""
}

// ChanName returns the registered name of a channel.
func (m *Machine) ChanName(id trace.ObjID) string {
	if int(id) < len(m.chans) {
		return m.chans[id].name
	}
	return ""
}

// StreamName returns the registered name of a stream.
func (m *Machine) StreamName(id trace.ObjID) string {
	if int(id) < len(m.streams) {
		return m.streams[id].name
	}
	return ""
}

// StreamID returns the ID of a registered stream and whether it exists,
// without registering it.
func (m *Machine) StreamID(name string) (trace.ObjID, bool) {
	id, ok := m.streamIDs[name]
	return id, ok
}

// StreamNames returns all stream names indexed by their object ID.
func (m *Machine) StreamNames() []string {
	out := make([]string, len(m.streams))
	for i := range m.streams {
		out[i] = m.streams[i].name
	}
	return out
}

// CellValue returns the current value of a cell. Intended for assertions in
// tests and for failure specifications evaluated after Run returns.
func (m *Machine) CellValue(id trace.ObjID) trace.Value {
	if int(id) < len(m.cells) {
		return m.cells[id].slot.val
	}
	return trace.Nil
}

// ChanLen returns the number of buffered values in a channel.
func (m *Machine) ChanLen(id trace.ObjID) int {
	if int(id) < len(m.chans) {
		return m.chans[id].size()
	}
	return 0
}
