package vm

import (
	"fmt"
	"testing"
	"unsafe"

	"debugdet/internal/trace"
)

// meshObjects names the channels and streams of a k-node simnet mesh: one
// channel and two streams per directed link.
func meshObjects(k int) (chans, streams []string) {
	for i := range k {
		for j := range k {
			if i != j {
				chans = append(chans, fmt.Sprintf("link:%d->%d", i, j))
				streams = append(streams, fmt.Sprintf("net.lat:%d->%d", i, j), fmt.Sprintf("net.drop:%d->%d", i, j))
			}
		}
	}
	return chans, streams
}

// declare registers chans and streams on m, after Reserve when reserve is
// set.
func declare(m *Machine, chans, streams []string, reserve bool) {
	if reserve {
		Reserve(m, len(chans), len(streams))
	}
	for _, name := range chans {
		m.NewChan(name, 4)
	}
	for _, name := range streams {
		m.DeclareStream(name, trace.TaintEnv)
	}
}

// TestReserveGrowsTablesOnce: on a fresh machine, declaring a k-node
// mesh's k(k−1) channels and 2k(k−1) streams after one Reserve allocates
// nothing beyond Reserve itself, which grows the channel table, the stream
// table and the stream name index once each; without it they grow a
// doubling at a time.
func TestReserveGrowsTablesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	chans, streams := meshObjects(6)
	reserved := testing.AllocsPerRun(10, func() { Reserve(New(Config{}), len(chans), len(streams)) })
	declared := testing.AllocsPerRun(10, func() { declare(New(Config{}), chans, streams, true) })
	unreserved := testing.AllocsPerRun(10, func() { declare(New(Config{}), chans, streams, false) })
	if declared != reserved {
		t.Fatalf("declaring %d channels and %d streams after Reserve allocated %v times beyond Reserve's %v",
			len(chans), len(streams), declared-reserved, reserved)
	}
	if unreserved <= declared {
		t.Fatalf("without Reserve the declarations allocated %v times, with it %v: the growth Reserve saves does not show",
			unreserved, declared)
	}
}

// TestReserveKeepsRecycledSlots: on a recycled machine whose tables hold
// the mesh, Reserve allocates nothing, and the channels and streams
// declared after it reuse each slot's channel buffer and stream histories
// that the previous run left.
func TestReserveKeepsRecycledSlots(t *testing.T) {
	chans, streams := meshObjects(4)
	cfg := Config{Seed: 3, Inputs: SeededInputs(3, 1000)}
	m := New(cfg)
	declare(m, chans, streams, true)
	s := m.Site("test")
	res := m.Run(func(t *Thread) {
		for id := range len(chans) {
			t.Send(s, trace.ObjID(id), trace.Int(1))
			t.Recv(s, trace.ObjID(id))
		}
		for id := range len(streams) {
			t.Output(s, trace.ObjID(id), t.Input(s, trace.ObjID(id)))
		}
	})
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome %v", res.Outcome)
	}
	bufs := make([]*slot, len(chans))
	for id := range bufs {
		bufs[id] = unsafe.SliceData(m.chans[id].buf)
	}
	ins, outs := make([]*trace.Value, len(streams)), make([]*trace.Value, len(streams))
	for id := range ins {
		ins[id], outs[id] = unsafe.SliceData(m.streams[id].inputs), unsafe.SliceData(m.streams[id].outputs)
	}

	if r := Recycle(m, cfg, nil); r != m {
		t.Fatal("a finished machine was not recycled")
	}
	if a := testing.AllocsPerRun(10, func() { Reserve(m, len(chans), len(streams)) }); a != 0 && !raceEnabled {
		t.Fatalf("Reserve on a recycled machine that holds the mesh allocated %v times", a)
	}
	declare(m, chans, streams, true)
	for id, buf := range bufs {
		if buf == nil || unsafe.SliceData(m.chans[id].buf) != buf {
			t.Fatalf("channel %d: the recycled slot's buffer was not reused", id)
		}
	}
	for id := range ins {
		st := &m.streams[id]
		if ins[id] == nil || outs[id] == nil || unsafe.SliceData(st.inputs) != ins[id] || unsafe.SliceData(st.outputs) != outs[id] {
			t.Fatalf("stream %d: the recycled slot's histories were not reused", id)
		}
	}
}
