package progen

import (
	"fmt"

	"debugdet/internal/scenario"
	"debugdet/internal/simdisk"
	"debugdet/internal/simnet"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Pinned catalog defaults: a (generator seed, scheduler seed) pair per
// family whose production run manifests the injected failure. Verified by
// TestCorpusDefaultsFail and the workload-level default-seed test. Each
// gen is congruent to its family index modulo the family count, so the
// raw gens double as fuzz seeds for their own family.
const (
	atomicityGen, atomicitySeed   = 10, 3
	lockCycleGen, lockCycleSeed   = 1, 3
	lostMessageGen, lostMsgSeed   = 2, 1
	oversellGen, oversellSeedPins = 3, 2
	crashPointGen, crashPointSeed = 4, 1
)

// --- fuzz-atomicity -----------------------------------------------------

func atomicityScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name: "fuzz-atomicity",
		Description: "generated atomicity violation: seed-shaped worker pool " +
			"increments a shared counter with an unlocked load/store pair; " +
			"interleavings in the window lose updates",
		DefaultParams: scenario.Params{"gen": atomicityGen, "fixed": 0},
		DefaultSeed:   atomicitySeed,
		Build:         buildAtomicity,
		Inputs:        hashInputs,
		InputDomains: []scenario.InputDomain{
			{Stream: "fuzz.delta", Min: 0, Max: 4},
		},
		ControlStreams: []string{"fuzz.delta"},
		Failure: scenario.FailureSpec{
			Name: "lost-update",
			Check: func(v *scenario.RunView) (bool, string) {
				expected, okE := v.LastOutput("fuzz.expected")
				actual, okA := v.LastOutput("fuzz.actual")
				if !okE || !okA {
					return false, ""
				}
				if actual != expected {
					return true, "fuzz:lost-update"
				}
				return false, ""
			},
		},
		RootCauses: []scenario.RootCause{{
			ID:          "unlocked-rmw",
			Description: "the counter's load/store pair runs outside any lock; interleaved workers overwrite each other's increments",
			Present: func(v *scenario.RunView) bool {
				expected, _ := v.LastOutput("fuzz.expected")
				actual, _ := v.LastOutput("fuzz.actual")
				return actual != expected
			},
		}},
	}
}

func buildAtomicity(m *vm.Machine, p scenario.Params) func(*vm.Thread) {
	r := newRng(p.Get("gen", atomicityGen))
	genWorkers := r.between(2, 4)
	genIters := r.between(2, 5)
	noise := r.intn(3)
	windows := make([]int, genWorkers)
	for i := range windows {
		windows[i] = r.between(1, 2)
	}
	workers := int(p.Get("threads", int64(genWorkers)))
	iters := int(p.Get("iters", int64(genIters)))
	fixed := p.Get("fixed", 0) != 0

	counter := m.NewCell("fuzz.counter", trace.Int(0))
	applied := m.NewCells("fuzz.applied", workers, trace.Int(0))
	mu := m.NewMutex("fuzz.mu")
	done := m.NewChan("fuzz.done", workers)
	var noiseCells []trace.ObjID
	if noise > 0 {
		noiseCells = m.NewCells("fuzz.noise", noise, trace.Int(0))
	}
	deltaIn := m.DeclareStream("fuzz.delta", trace.TaintControl)

	sIn := m.Site("fuzz.delta.in")
	sRead := m.Site("fuzz.read")
	sWindow := m.Site("fuzz.window")
	sWrite := m.Site("fuzz.write")
	sLock := m.Site("fuzz.lock")
	sTally := m.Site("fuzz.tally")
	sNoise := m.Site("fuzz.noiseop")
	sDone := m.Site("fuzz.join")
	sSpawn := m.Site("main.spawn")
	sReport := m.Site("fuzz.report")

	worker := func(id int) func(*vm.Thread) {
		return func(t *vm.Thread) {
			for k := 0; k < iters; k++ {
				v := t.Input(sIn, deltaIn).AsInt()
				if v < 0 {
					v = -v
				}
				delta := 1 + v%5
				if fixed {
					t.Lock(sLock, mu)
				}
				cur := t.Load(sRead, counter).AsInt()
				if !fixed {
					for y := 0; y < windows[id%len(windows)]; y++ {
						t.Yield(sWindow)
					}
				}
				t.Store(sWrite, counter, trace.Int(cur+delta))
				if fixed {
					t.Unlock(sLock, mu)
				}
				t.Add(sTally, applied[id], delta)
				if len(noiseCells) > 0 {
					t.Add(sNoise, noiseCells[(id+k)%len(noiseCells)], 1)
				}
			}
			t.Send(sDone, done, trace.Int(int64(id)))
		}
	}

	return func(t *vm.Thread) {
		for w := 0; w < workers; w++ {
			t.Spawn(sSpawn, fmt.Sprintf("worker%d", w), worker(w))
		}
		for w := 0; w < workers; w++ {
			t.Recv(sDone, done)
		}
		var expected int64
		for _, a := range applied {
			expected += t.Load(sReport, a).AsInt()
		}
		t.Output(sReport, m.Stream("fuzz.expected"), trace.Int(expected))
		t.Output(sReport, m.Stream("fuzz.actual"), t.Load(sReport, counter))
	}
}

// --- fuzz-deadlock ------------------------------------------------------

func lockCycleScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name: "fuzz-deadlock",
		Description: "generated lock-order inversion: two seed-shaped locker " +
			"threads acquire the same mutex pair in opposite orders; some " +
			"interleavings deadlock",
		DefaultParams: scenario.Params{"gen": lockCycleGen, "fixed": 0},
		DefaultSeed:   lockCycleSeed,
		Build:         buildLockCycle,
		Inputs: func(seed int64, p scenario.Params) vm.InputSource {
			return vm.ZeroInputs
		},
		Failure: scenario.FailureSpec{
			Name: "deadlock",
			Check: func(v *scenario.RunView) (bool, string) {
				if v.Result.Outcome != vm.OutcomeDeadlock {
					return false, ""
				}
				return true, "fuzz:deadlock"
			},
		},
		RootCauses: []scenario.RootCause{{
			ID:          "lock-order-inversion",
			Description: "one locker takes (A, B) while the other takes (B, A); holding one while waiting for the other is exactly the machine's deadlock condition",
			Present: func(v *scenario.RunView) bool {
				return v.Result.Outcome == vm.OutcomeDeadlock
			},
		}},
	}
}

func buildLockCycle(m *vm.Machine, p scenario.Params) func(*vm.Thread) {
	r := newRng(p.Get("gen", lockCycleGen))
	genIters := r.between(1, 4)
	nLocks := r.between(2, 3)
	a := r.intn(nLocks)
	b := (a + 1 + r.intn(nLocks-1)) % nLocks
	noiseThreads := r.intn(2)
	iters := int(p.Get("iters", int64(genIters)))
	fixed := p.Get("fixed", 0) != 0

	locks := make([]trace.ObjID, nLocks)
	for i := range locks {
		locks[i] = m.NewMutex(fmt.Sprintf("fuzz.lock[%d]", i))
	}
	work := m.NewCell("fuzz.work", trace.Int(0))
	total := 2 + noiseThreads
	done := m.NewChan("fuzz.done", total)

	sLock := m.Site("fuzz.lock.acquire")
	sWork := m.Site("fuzz.work.add")
	sWindow := m.Site("fuzz.window")
	sDone := m.Site("fuzz.join")
	sSpawn := m.Site("main.spawn")
	sReport := m.Site("fuzz.report")

	locker := func(first, second trace.ObjID) func(*vm.Thread) {
		if fixed && first > second {
			first, second = second, first
		}
		return func(t *vm.Thread) {
			for i := 0; i < iters; i++ {
				t.Lock(sLock, first)
				t.Yield(sWindow)
				t.Lock(sLock, second)
				t.Add(sWork, work, 1)
				t.Unlock(sWork, second)
				t.Unlock(sWork, first)
			}
			t.Send(sDone, done, trace.Int(0))
		}
	}
	noiseBody := func(id int) func(*vm.Thread) {
		mu := m.NewMutex(fmt.Sprintf("fuzz.noiselock[%d]", id))
		cell := m.NewCell(fmt.Sprintf("fuzz.noisecell[%d]", id), trace.Int(0))
		return func(t *vm.Thread) {
			for i := 0; i < iters; i++ {
				t.Lock(sLock, mu)
				t.Add(sWork, cell, 1)
				t.Unlock(sWork, mu)
			}
			t.Send(sDone, done, trace.Int(1))
		}
	}

	noiseBodies := make([]func(*vm.Thread), noiseThreads)
	for i := range noiseBodies {
		noiseBodies[i] = noiseBody(i) // allocate VM objects before Run
	}

	return func(t *vm.Thread) {
		t.Spawn(sSpawn, "ab", locker(locks[a], locks[b]))
		t.Spawn(sSpawn, "ba", locker(locks[b], locks[a]))
		for i, body := range noiseBodies {
			t.Spawn(sSpawn, fmt.Sprintf("noise%d", i), body)
		}
		for i := 0; i < total; i++ {
			t.Recv(sDone, done)
		}
		t.Output(sReport, m.Stream("fuzz.completed"), t.Load(sReport, work))
	}
}

// --- fuzz-lostmsg -------------------------------------------------------

func lostMessageScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name: "fuzz-lostmsg",
		Description: "generated lossy-link exchange: a client streams " +
			"seed-shaped payload messages to a server over a simnet link " +
			"that drops with seed-chosen probability; delivered < sent",
		DefaultParams: scenario.Params{"gen": lostMessageGen, "fixed": 0},
		DefaultSeed:   lostMsgSeed,
		Build:         buildLostMessage,
		Inputs:        hashInputs,
		InputDomains: []scenario.InputDomain{
			{Stream: "fuzz.payload", Min: 0, Max: 999},
			{Stream: "net.drop:client->server", Min: 0, Max: 99},
			{Stream: "net.lat:client->server", Min: 0, Max: 99},
		},
		ControlStreams: []string{
			"net.drop:client->server", "net.lat:client->server",
		},
		Failure: scenario.FailureSpec{
			Name: "lost-message",
			Check: func(v *scenario.RunView) (bool, string) {
				sent, okS := v.LastOutput("fuzz.sent")
				delivered, okD := v.LastOutput("fuzz.delivered")
				if !okS || !okD {
					return false, ""
				}
				if delivered < sent {
					return true, "fuzz:lost-message"
				}
				return false, ""
			},
		},
		RootCauses: []scenario.RootCause{{
			ID:          "lossy-link",
			Description: "the client->server link drops messages; the exchange has no acknowledgement or retry",
			Present: func(v *scenario.RunView) bool {
				sent, _ := v.LastOutput("fuzz.sent")
				delivered, _ := v.LastOutput("fuzz.delivered")
				return delivered < sent
			},
		}},
	}
}

func buildLostMessage(m *vm.Machine, p scenario.Params) func(*vm.Thread) {
	r := newRng(p.Get("gen", lostMessageGen))
	genMsgs := r.between(4, 9)
	drop := int64(r.between(25, 70))
	latBase := uint64(r.between(5, 24))
	var jitter uint64
	if r.intn(3) > 0 {
		jitter = uint64(r.between(4, 15))
	}
	inboxCap := r.between(4, 15)
	pace := uint64(r.between(20, 60))
	msgs := int(p.Get("messages", int64(genMsgs)))
	if p.Get("fixed", 0) != 0 {
		drop = 0
	}

	net := simnet.New(m, simnet.Options{
		DefaultLink:   simnet.LinkConfig{LatencyBase: latBase, LatencyJitter: jitter, DropPercent: drop},
		InboxCapacity: inboxCap,
	})
	net.AddNode("client")
	net.AddNode("server")
	net.Build()

	received := m.NewCell("fuzz.received", trace.Int(0))
	done := m.NewChan("fuzz.clientdone", 1)
	payloadIn := m.DeclareStream("fuzz.payload", trace.TaintData)

	sPayload := m.Site("fuzz.payload.in")
	sSend := m.Site("fuzz.send")
	sRecv := m.Site("fuzz.recv")
	sCount := m.Site("fuzz.count")
	sPace := m.Site("fuzz.pace")
	sDone := m.Site("fuzz.join")
	sSpawn := m.Site("main.spawn")
	sReport := m.Site("fuzz.report")

	server := func(t *vm.Thread) {
		for {
			net.Recv(t, sRecv, "server")
			t.Add(sCount, received, 1)
		}
	}
	client := func(t *vm.Thread) {
		for i := 0; i < msgs; i++ {
			payload := t.Input(sPayload, payloadIn).AsInt()
			net.Send(t, sSend, "client", "server", simnet.Message{
				Kind: "msg", From: "client", Nums: []int64{payload},
			})
			t.Sleep(sPace, pace)
		}
		t.Send(sDone, done, trace.Int(0))
	}

	// Drain bound: pumps serialize deliveries, so everything in flight
	// lands within msgs * (latency + jitter + pace) cycles of the last
	// send; the slack absorbs inbox backpressure.
	drain := uint64(msgs)*(latBase+jitter+pace) + 5000

	return func(t *vm.Thread) {
		net.Start(t)
		t.SpawnDaemon(sSpawn, "server", server)
		t.Spawn(sSpawn, "client", client)
		t.Recv(sDone, done)
		t.Sleep(sPace, drain)
		t.Output(sReport, m.Stream("fuzz.sent"), trace.Int(int64(msgs)))
		t.Output(sReport, m.Stream("fuzz.delivered"), t.Load(sReport, received))
	}
}

// --- fuzz-oversell ------------------------------------------------------

func oversellScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name: "fuzz-oversell",
		Description: "generated TOCTOU oversell: seed-shaped buyer threads " +
			"check a shared remaining-capacity cell, yield in the window, " +
			"then decrement it; concurrent buyers sell more than capacity",
		DefaultParams: scenario.Params{"gen": oversellGen, "fixed": 0},
		DefaultSeed:   oversellSeedPins,
		Build:         buildOversell,
		Inputs:        hashInputs,
		InputDomains: []scenario.InputDomain{
			{Stream: "fuzz.want", Min: 0, Max: 1},
		},
		ControlStreams: []string{"fuzz.want"},
		Failure: scenario.FailureSpec{
			Name: "oversell",
			Check: func(v *scenario.RunView) (bool, string) {
				capacity, okC := v.LastOutput("fuzz.capacity")
				sold, okS := v.LastOutput("fuzz.sold")
				if !okC || !okS {
					return false, ""
				}
				if sold > capacity {
					return true, "fuzz:oversell"
				}
				return false, ""
			},
		},
		RootCauses: []scenario.RootCause{{
			ID:          "toctou-window",
			Description: "the capacity check and the decrement are separate operations; buyers interleaving in the window each see enough remaining and all sell",
			Present: func(v *scenario.RunView) bool {
				capacity, _ := v.LastOutput("fuzz.capacity")
				sold, _ := v.LastOutput("fuzz.sold")
				return sold > capacity
			},
		}},
	}
}

// --- fuzz-crashpoint ----------------------------------------------------

func crashPointScenario() *scenario.Scenario {
	return &scenario.Scenario{
		Name: "fuzz-crashpoint",
		Description: "generated crash-point durability loss: a seed-shaped " +
			"writer appends framed records to a simulated-disk WAL and " +
			"acknowledges each append before the group fsync; a crash at an " +
			"input-chosen point loses acknowledged records",
		DefaultParams: scenario.Params{"gen": crashPointGen, "fixed": 0},
		DefaultSeed:   crashPointSeed,
		Build:         buildCrashPoint,
		Inputs:        hashInputs,
		InputDomains: []scenario.InputDomain{
			{Stream: "fuzz.payload", Min: 0, Max: 999},
			{Stream: "fuzz.crashplan", Min: 0, Max: 127},
		},
		ControlStreams: []string{"fuzz.crashplan"},
		Failure: scenario.FailureSpec{
			Name: "lost-record",
			Check: func(v *scenario.RunView) (bool, string) {
				acked, okA := v.LastOutput("fuzz.acked")
				recovered, okR := v.LastOutput("fuzz.recovered")
				if !okA || !okR {
					return false, ""
				}
				if recovered < acked {
					return true, "fuzz:lost-record"
				}
				return false, ""
			},
		},
		RootCauses: []scenario.RootCause{{
			ID:          "early-ack",
			Description: "appends are acknowledged as soon as they are written, before the group fsync makes them durable; a crash inside the group window discards acknowledged records",
			Present: func(v *scenario.RunView) bool {
				acked, _ := v.LastOutput("fuzz.acked")
				recovered, _ := v.LastOutput("fuzz.recovered")
				return recovered < acked
			},
		}},
	}
}

func buildCrashPoint(m *vm.Machine, p scenario.Params) func(*vm.Thread) {
	r := newRng(p.Get("gen", crashPointGen))
	genRecs := r.between(5, 11)
	genGroup := r.between(2, 3) // a group of 1 would fsync every append and mask the bug
	noise := r.intn(3)
	recs := int(p.Get("records", int64(genRecs)))
	group := int(p.Get("group", int64(genGroup)))
	fixed := p.Get("fixed", 0) != 0

	disk := m.NewDisk("fuzz.wal", vm.DiskFaults{})
	ackTally := m.NewCell("fuzz.acktally", trace.Int(0))
	done := m.NewChan("fuzz.done", 1)
	var noiseCells []trace.ObjID
	if noise > 0 {
		noiseCells = m.NewCells("fuzz.noise", noise, trace.Int(0))
	}
	payloadIn := m.DeclareStream("fuzz.payload", trace.TaintData)
	planIn := m.DeclareStream("fuzz.crashplan", trace.TaintControl)

	sPayload := m.Site("fuzz.payload.in")
	sPlan := m.Site("fuzz.plan.in")
	sAppend := m.Site("fuzz.wal.append")
	sFsync := m.Site("fuzz.wal.fsync")
	sAck := m.Site("fuzz.ack")
	sCrash := m.Site("fuzz.crash")
	sScan := m.Site("fuzz.recover.scan")
	sNoise := m.Site("fuzz.noiseop")
	sDone := m.Site("fuzz.join")
	sSpawn := m.Site("main.spawn")
	sReport := m.Site("fuzz.report")

	writer := func(t *vm.Thread) {
		plan := t.Input(sPlan, planIn).AsInt()
		if plan < 0 {
			plan = -plan
		}
		crashAfter := 1 + int(plan%int64(recs))
		acked, durable := 0, 0
		for i := 0; i < crashAfter; i++ {
			payload := t.Input(sPayload, payloadIn).AsInt()
			simdisk.Append(t, sAppend, disk, int64(i), payload)
			if !fixed {
				// The defect: acknowledged the moment it is written,
				// while the record is still volatile.
				acked++
				t.Add(sAck, ackTally, 1)
			}
			if (i+1)%group == 0 {
				w := int(t.DiskFsync(sFsync, disk))
				if fixed {
					t.Add(sAck, ackTally, int64(w-durable))
					acked = w
				}
				durable = w
			}
			if len(noiseCells) > 0 {
				t.Add(sNoise, noiseCells[i%len(noiseCells)], payload%7)
			}
		}
		t.DiskCrash(sCrash, disk)
		t.Send(sDone, done, trace.Int(int64(acked)))
	}

	return func(t *vm.Thread) {
		t.Spawn(sSpawn, "writer", writer)
		acked := t.Recv(sDone, done).AsInt()
		recovered := int64(0)
		for _, raw := range simdisk.Scan(t, sScan, disk) {
			if _, ok := simdisk.Decode(raw); ok {
				recovered++
			}
		}
		t.Output(sReport, m.Stream("fuzz.acked"), trace.Int(acked))
		t.Output(sReport, m.Stream("fuzz.recovered"), trace.Int(recovered))
	}
}

func buildOversell(m *vm.Machine, p scenario.Params) func(*vm.Thread) {
	r := newRng(p.Get("gen", oversellGen))
	capacity := int64(r.between(2, 5))
	genBuyers := r.between(2, 4)
	genAttempts := r.between(1, 3)
	windows := make([]int, genBuyers)
	for i := range windows {
		windows[i] = r.between(1, 2)
	}
	buyers := int(p.Get("buyers", int64(genBuyers)))
	attempts := int(p.Get("attempts", int64(genAttempts)))
	fixed := p.Get("fixed", 0) != 0

	remaining := m.NewCell("fuzz.remaining", trace.Int(capacity))
	sold := m.NewCell("fuzz.sold", trace.Int(0))
	mu := m.NewMutex("fuzz.mu")
	done := m.NewChan("fuzz.done", buyers)
	wantIn := m.DeclareStream("fuzz.want", trace.TaintControl)

	sWant := m.Site("fuzz.want.in")
	sCheck := m.Site("fuzz.check")
	sWindow := m.Site("fuzz.window")
	sTake := m.Site("fuzz.take")
	sSell := m.Site("fuzz.sell")
	sLock := m.Site("fuzz.lock")
	sDone := m.Site("fuzz.join")
	sSpawn := m.Site("main.spawn")
	sReport := m.Site("fuzz.report")

	buyer := func(id int) func(*vm.Thread) {
		return func(t *vm.Thread) {
			for a := 0; a < attempts; a++ {
				v := t.Input(sWant, wantIn).AsInt()
				if v < 0 {
					v = -v
				}
				want := 1 + v%2
				if fixed {
					t.Lock(sLock, mu)
				}
				rem := t.Load(sCheck, remaining).AsInt()
				if rem >= want {
					if !fixed {
						for y := 0; y < windows[id%len(windows)]; y++ {
							t.Yield(sWindow)
						}
					}
					t.Store(sTake, remaining, trace.Int(rem-want))
					t.Add(sSell, sold, want)
				}
				if fixed {
					t.Unlock(sLock, mu)
				}
			}
			t.Send(sDone, done, trace.Int(int64(id)))
		}
	}

	return func(t *vm.Thread) {
		for b := 0; b < buyers; b++ {
			t.Spawn(sSpawn, fmt.Sprintf("buyer%d", b), buyer(b))
		}
		for b := 0; b < buyers; b++ {
			t.Recv(sDone, done)
		}
		t.Output(sReport, m.Stream("fuzz.capacity"), trace.Int(capacity))
		t.Output(sReport, m.Stream("fuzz.sold"), t.Load(sReport, sold))
	}
}
