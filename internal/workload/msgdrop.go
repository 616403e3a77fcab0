package workload

import (
	"debugdet/internal/scenario"
	"debugdet/internal/simnet"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// MsgDrop is the paper's §2 server example: a server drops messages at
// higher-than-expected rates. The true root cause is a race on the shared
// buffer index between the two worker threads draining the inbox — two
// workers read the same index, one message overwrites the other. The same
// observable failure can also arise from network congestion (the link may
// legitimately drop packets), which is beyond the developer's control. An
// over-relaxed replayer that only reproduces the failure may synthesize
// the congestion explanation, deceiving the developer into thinking
// nothing can be done — exactly the §2 hazard.
func MsgDrop() *scenario.Scenario {
	return &scenario.Scenario{
		Name: "msgdrop",
		Description: "server loses messages: really a race on the receive buffer " +
			"between worker threads, but network congestion can produce the same " +
			"symptom (§2's wrong-root-cause example)",
		DefaultParams: scenario.Params{"messages": 36, "fixed": 0},
		DefaultSeed:   2, // verified racy by TestMsgDropDefaultSeed
		Build:         buildMsgDrop,
		Inputs: func(seed int64, p scenario.Params) vm.InputSource {
			return vm.InputSourceFunc(func(stream string, index int) trace.Value {
				if len(stream) >= 8 && stream[:8] == "net.drop" {
					return trace.Int(99) // production network is healthy
				}
				return trace.Int(vm.HashValue(seed, stream, index) % 1000)
			})
		},
		InputDomains: []scenario.InputDomain{
			{Stream: "src.payload", Min: 0, Max: 999},
			{Stream: "net.drop:src->server", Min: 0, Max: 99},
			{Stream: "net.lat:src->server", Min: 0, Max: 99},
		},
		Failure: scenario.FailureSpec{
			Name: "high-loss",
			Check: func(v *scenario.RunView) (bool, string) {
				sent, okS := v.LastOutput("report.sent")
				delivered, okD := v.LastOutput("report.delivered")
				if !okS || !okD {
					return false, ""
				}
				if delivered < sent {
					return true, "msgdrop:high-loss"
				}
				return false, ""
			},
		},
		RootCauses: []scenario.RootCause{
			{
				ID:          "buffer-race",
				Description: "two workers race on the buffer index; concurrent updates overwrite a slot and lose its message",
				Present: func(v *scenario.RunView) bool {
					processed := v.Machine.CellByName("oracle.processed0").AsInt() +
						v.Machine.CellByName("oracle.processed1").AsInt()
					stored := v.Machine.CellByName("srv.count").AsInt()
					return stored < processed
				},
			},
			{
				ID:          "net-congestion",
				Description: "the network legitimately dropped packets under load (outside the developer's control)",
				Present: func(v *scenario.RunView) bool {
					sent, _ := v.LastOutput("report.sent")
					processed := v.Machine.CellByName("oracle.processed0").AsInt() +
						v.Machine.CellByName("oracle.processed1").AsInt()
					return processed < sent
				},
			},
		},
		ControlStreams: []string{"net.drop:src->server", "net.lat:src->server"},
	}
}

const msgdropSlots = 64

func buildMsgDrop(m *vm.Machine, p scenario.Params) func(*vm.Thread) {
	n := int(p.Get("messages", 36))
	fixed := p.Get("fixed", 0) != 0

	net := simnet.New(m, simnet.Options{
		DefaultLink:   simnet.LinkConfig{LatencyBase: 10, DropPercent: 8},
		InboxCapacity: 16,
	})
	net.AddNode("src")
	net.AddNode("server")
	net.Build()

	count := m.NewCell("srv.count", trace.Int(0))
	slots := m.NewCells("srv.slot", msgdropSlots, trace.Nil)
	mu := m.NewMutex("srv.mu")
	proc := []trace.ObjID{
		m.NewCell("oracle.processed0", trace.Int(0)),
		m.NewCell("oracle.processed1", trace.Int(0)),
	}

	payloadIn := m.DeclareStream("src.payload", trace.TaintData)
	sentOut := m.Stream("report.sent")
	deliveredOut := m.Stream("report.delivered")

	sPayload := m.Site("src.payload.in")
	sSend := m.Site("src.send")
	sRecv := m.Site("worker.recv")
	sIdx := m.Site("worker.index")
	sWindow := m.Site("worker.window")
	sSlot := m.Site("worker.slot")
	sCount := m.Site("worker.count")
	sLock := m.Site("worker.lock")
	sProc := m.Site("worker.processed")
	sReport := m.Site("report.out")
	sSpawn := m.Site("main.spawn")
	sPace := m.Site("main.pace")

	store := func(t *vm.Thread, w int, payload int64) {
		if fixed {
			t.Lock(sLock, mu)
		}
		// The unprotected window is the gap between reading the index and
		// publishing the new count: separate operations another worker
		// can interleave with.
		idx := t.Load(sIdx, count).AsInt()
		t.Store(sSlot, slots[idx%msgdropSlots], trace.Int(payload))
		t.Store(sCount, count, trace.Int(idx+1))
		if fixed {
			t.Unlock(sLock, mu)
		}
		t.Add(sProc, proc[w], 1)
	}

	// worker0 is the primary consumer; worker1 is a helper that polls
	// occasionally to absorb bursts. Their overlap — and hence the racy
	// window — is rare, which is what makes the bug hard to reproduce.
	primary := func(t *vm.Thread) {
		for {
			t.ClearTaint()
			msg := net.Recv(t, sRecv, "server")
			store(t, 0, msg.Num(0))
		}
	}
	helper := func(t *vm.Thread) {
		for {
			t.ClearTaint()
			t.Sleep(sWindow, 6500)
			if v, ok := t.TryRecv(sRecv, net.MustNode("server").Inbox); ok {
				msg := simnet.MustDecode(v)
				store(t, 1, msg.Num(0))
			}
		}
	}

	return func(t *vm.Thread) {
		net.Start(t)
		t.SpawnDaemon(sSpawn, "worker0", primary)
		t.SpawnDaemon(sSpawn, "worker1", helper)
		t.Spawn(sSpawn, "src", func(t *vm.Thread) {
			for i := 0; i < n; i++ {
				t.ClearTaint()
				payload := t.Input(sPayload, payloadIn).AsInt()
				net.Send(t, sSend, "src", "server", simnet.Message{
					Kind: "msg", From: "src", Nums: []int64{payload},
				})
				// Paced load: the inbox stays near-empty, so the helper's
				// polls rarely coincide with queued work.
				t.Sleep(sPace, 160)
			}
		})
		// Let the pipeline drain: the sleep wakes once the system
		// quiesces (virtual time jumps over idle gaps).
		t.Sleep(sPace, 300000)
		t.Output(sReport, sentOut, trace.Int(int64(n)))
		t.Output(sReport, deliveredOut, t.Load(sReport, count))
	}
}
