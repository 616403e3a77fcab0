package sim_test

import (
	"testing"

	"debugdet/sim"
	"debugdet/trace"
)

// TestMachineEndToEnd drives the public machine surface exactly as a
// workload author would: cells, a mutex, a channel and spawned threads
// running a tiny producer/consumer program, bit-reproducible from a seed.
func TestMachineEndToEnd(t *testing.T) {
	run := func() *sim.Result {
		m := sim.New(sim.Config{Seed: 11, CollectTrace: true})
		total := m.NewCell("total", trace.Int(0))
		mu := m.NewMutex("mu")
		ch := m.NewChan("ch", 2)
		done := m.NewChan("done", 1)
		out := m.Stream("sum.out")
		sOp := m.Site("op")
		sSpawn := m.Site("spawn")

		producer := func(t *sim.Thread) {
			for i := int64(1); i <= 4; i++ {
				t.Send(sOp, ch, trace.Int(i))
			}
		}
		consumer := func(t *sim.Thread) {
			for i := 0; i < 4; i++ {
				v := t.Recv(sOp, ch).AsInt()
				t.Lock(sOp, mu)
				cur := t.Load(sOp, total).AsInt()
				t.Store(sOp, total, trace.Int(cur+v))
				t.Unlock(sOp, mu)
			}
			t.Send(sOp, done, trace.Int(1))
		}
		res := m.Run(func(t *sim.Thread) {
			t.Spawn(sSpawn, "producer", producer)
			t.Spawn(sSpawn, "consumer", consumer)
			t.Recv(sOp, done)
			t.Output(sOp, out, m.CellValue(total))
		})
		return res
	}

	res := run()
	if res.Outcome != sim.OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if got := res.Outputs["sum.out"]; len(got) != 1 || got[0].AsInt() != 10 {
		t.Fatalf("outputs = %v, want [10]", got)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		t.Fatal("no oracle trace collected")
	}
	// Bit-reproducibility: the same seed yields the same event sequence.
	again := run()
	if !trace.EventsEqual(res.Trace, again.Trace, false) {
		t.Fatal("two runs from the same seed differ")
	}
}

// TestBytesValueIsACopy: trace.Bytes copies its slice, so a thread that
// reuses one buffer for successive outputs records each payload as it
// was, and the caller's later writes reach neither the outputs nor the
// trace.
func TestBytesValueIsACopy(t *testing.T) {
	m := sim.New(sim.Config{Seed: 1, CollectTrace: true})
	out := m.Stream("blob.out")
	s := m.Site("op")
	buf := []byte("aa")
	res := m.Run(func(t *sim.Thread) {
		t.Output(s, out, trace.Bytes(buf))
		copy(buf, "bb")
		t.Output(s, out, trace.Bytes(buf))
	})
	copy(buf, "zz")
	got := res.Outputs["blob.out"]
	if len(got) != 2 || got[0].AsString() != "aa" || got[1].AsString() != "bb" {
		t.Fatalf("outputs = %v, want the blobs \"aa\" and \"bb\"", got)
	}
	var traced []string
	for _, e := range res.Trace.Events {
		if e.Kind == trace.EvOutput {
			traced = append(traced, e.Val.AsString())
		}
	}
	if len(traced) != 2 || traced[0] != "aa" || traced[1] != "bb" {
		t.Fatalf("traced outputs = %q, want [aa bb]", traced)
	}
}

// TestSchedulersAndInputs exercises the stock scheduler constructors and
// input sources through the aliases.
func TestSchedulersAndInputs(t *testing.T) {
	if sim.NewRoundRobinScheduler() == nil || sim.NewRandomScheduler(1) == nil ||
		sim.NewPCTScheduler(1, 128, 2) == nil {
		t.Fatal("stock scheduler constructor returned nil")
	}
	if sim.NewReplayScheduler([]trace.ThreadID{0, 0}) == nil {
		t.Fatal("replay scheduler constructor returned nil")
	}
	if v := sim.SeededInputs(3, 10).Next("s", 0).AsInt(); v < 0 || v >= 10 {
		t.Fatalf("SeededInputs out of range: %d", v)
	}
	if a, b := sim.HashValue(3, "s", 0), sim.HashValue(3, "s", 0); a != b {
		t.Fatal("HashValue not deterministic")
	}
	m := sim.New(sim.Config{
		Seed:      5,
		Scheduler: sim.NewRoundRobinScheduler(),
		Inputs: sim.InputSourceFunc(func(stream string, index int) trace.Value {
			return trace.Int(int64(index) + 40)
		}),
		CollectTrace: true,
	})
	in := m.DeclareStream("env", trace.TaintControl)
	s := m.Site("read")
	res := m.Run(func(t *sim.Thread) {
		if got := t.Input(s, in).AsInt(); got != 40 {
			t.Fail(s, "input = %d, want 40", got)
		}
	})
	if res.Outcome != sim.OutcomeOK {
		t.Fatalf("outcome = %v (%v)", res.Outcome, res.Terminal.Val)
	}
	if got := res.InputsUsed["env"]; len(got) != 1 || got[0].AsInt() != 40 {
		t.Fatalf("InputsUsed = %v", got)
	}
}

// TestNetworkEndToEnd runs a minimal two-node simnet exchange through the
// public aliases: build, start, send, receive, decode.
func TestNetworkEndToEnd(t *testing.T) {
	m := sim.New(sim.Config{Seed: 9, CollectTrace: true})
	net := sim.NewNetwork(m, sim.NetworkOptions{
		DefaultLink:   sim.LinkConfig{LatencyBase: 3},
		InboxCapacity: 4,
	})
	net.AddNode("a")
	net.AddNode("b")
	net.Build()
	net.SetLink("a", "b", sim.LinkConfig{LatencyBase: 1})

	got := m.NewCell("got", trace.Int(-1))
	sOp := m.Site("op")
	res := m.Run(func(t *sim.Thread) {
		net.Start(t)
		net.Send(t, sOp, "a", "b", sim.Message{Kind: "ping", From: "a", Nums: []int64{42}})
		msg := net.Recv(t, sOp, "b")
		t.Store(sOp, got, trace.Int(msg.Num(0)))
	})
	if res.Outcome != sim.OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if v := m.CellValue(got).AsInt(); v != 42 {
		t.Fatalf("delivered payload = %d, want 42", v)
	}
	if net.Delivered() != 1 || net.Dropped() != 0 {
		t.Fatalf("delivered/dropped = %d/%d", net.Delivered(), net.Dropped())
	}
	// Encode/decode round trip through the public message helpers.
	enc := sim.Message{Kind: "k", From: "a", Args: []string{"x"}, Nums: []int64{7}}.Encode()
	dec, err := sim.DecodeMessage(enc)
	if err != nil || dec.Kind != "k" || dec.Num(0) != 7 {
		t.Fatalf("decode: %v %+v", err, dec)
	}
	if d := sim.MustDecodeMessage(enc); d.Arg(0) != "x" {
		t.Fatalf("must-decode: %+v", d)
	}
}
