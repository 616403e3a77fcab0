package dynokv

import (
	"debugdet/internal/simnet"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// --- storage node ---

// writerThread is a storage node's write-path loop (puts, deletes,
// anti-entropy, handoff). A node marked down still drains its inbox but
// discards every message unanswered, which is how the VM models an
// unreachable host: senders observe only silence.
func (cl *Cluster) writerThread(t *vm.Thread, n int) {
	st := &cl.sites
	me := nodeName(n)
	for {
		t.ClearTaint()
		msg := cl.Net.Recv(t, st.nodeRecv, me)
		if t.Load(st.nodeDown, cl.down[n]).AsInt() != 0 {
			continue
		}
		switch msg.Kind {
		case MsgPut, MsgSync:
			cl.handleInstall(t, n, msg)
		case MsgDel:
			cl.handleDelete(t, n, msg)
		case MsgPush:
			cl.handlePush(t, n, msg)
		}
	}
}

// readThread serves the node's read path from its own inbox, sharing the
// store with the writer — reads race in-flight replication exactly as they
// would across separate connections on a real host.
func (cl *Cluster) readThread(t *vm.Thread, n int) {
	st := &cl.sites
	me := readNodeName(n)
	for {
		t.ClearTaint()
		msg := cl.Net.Recv(t, st.nodeRecv, me)
		if t.Load(st.nodeDown, cl.down[n]).AsInt() != 0 {
			continue
		}
		if msg.Kind == MsgGet {
			cl.handleGet(t, n, msg)
		}
	}
}

// effective returns the node's current (version, dead) claim for a key,
// purging the tombstone first if its grace period has lapsed. Expiry is
// measured in anti-entropy epochs — logical time — because branching on
// the virtual clock would diverge under schedule-forcing replay.
func (cl *Cluster) effective(t *vm.Thread, n, key int) (int64, bool) {
	st := &cl.sites
	dead := t.Load(st.nodeLoad, cl.dead[n][key]).AsInt() != 0
	ver := t.Load(st.nodeLoad, cl.ver[n][key]).AsInt()
	if dead && cl.Cfg.GCGraceEpochs > 0 {
		created := t.Load(st.nodeLoad, cl.deadEpoch[n][key]).AsInt()
		now := t.Load(st.nodeLoad, cl.epoch).AsInt()
		if now-created >= cl.Cfg.GCGraceEpochs {
			// The defect: the tombstone ages out while a replica that
			// missed the delete still holds the live value.
			t.Store(st.nodeGC, cl.dead[n][key], trace.Int(0))
			t.Store(st.nodeGC, cl.ver[n][key], trace.Int(0))
			t.Store(st.nodeGC, cl.val[n][key], trace.Int(0))
			return 0, false
		}
	}
	return ver, dead
}

// handleInstall applies a put, read-repair put, handoff put or
// anti-entropy sync: install iff the incoming version beats the node's
// effective claim. Only MsgPut is acknowledged.
func (cl *Cluster) handleInstall(t *vm.Thread, n int, msg simnet.Message) {
	st := &cl.sites
	key := int(msg.Num(0))
	ver := msg.Num(1)
	val := msg.Num(2)
	eff, _ := cl.effective(t, n, key)
	if ver > eff {
		// Oracle: a sync or repair that reinstalls a value older than an
		// acknowledged delete is a resurrection — the grace period above
		// must have purged the tombstone for this branch to be reachable.
		if msg.Kind == MsgSync || msg.Num(4) != 0 {
			if t.Load(st.oracle, cl.deletedVer[key]).AsInt() > ver {
				t.Add(st.oracle, cl.resurrected, 1)
			}
		}
		t.Store(st.nodeStore, cl.ver[n][key], trace.Int(ver))
		t.Store(st.nodeStore, cl.val[n][key], trace.Int(val))
		t.Store(st.nodeStore, cl.dead[n][key], trace.Int(0))
	}
	if msg.Kind == MsgPut {
		cl.Net.Send(t, st.nodeReply, nodeName(n), msg.From, simnet.Message{
			Kind: MsgPutAck, From: nodeName(n),
			Nums: []int64{msg.Num(3), int64(n), int64(key), ver},
		})
	}
}

// handleDelete installs a tombstone, stamping it with the current
// anti-entropy epoch for grace accounting.
func (cl *Cluster) handleDelete(t *vm.Thread, n int, msg simnet.Message) {
	st := &cl.sites
	key := int(msg.Num(0))
	ver := msg.Num(1)
	eff, _ := cl.effective(t, n, key)
	if ver > eff {
		t.Store(st.nodeStore, cl.ver[n][key], trace.Int(ver))
		t.Store(st.nodeStore, cl.val[n][key], trace.Int(0))
		t.Store(st.nodeStore, cl.dead[n][key], trace.Int(1))
		t.Store(st.nodeStore, cl.deadEpoch[n][key], t.Load(st.nodeLoad, cl.epoch))
	}
	cl.Net.Send(t, st.nodeReply, nodeName(n), msg.From, simnet.Message{
		Kind: MsgDelAck, From: nodeName(n),
		Nums: []int64{msg.Num(2), int64(n), int64(key), ver},
	})
}

// handleGet serves a read. In stale mode the node first consults its wipe
// fault switch — a replica that loses its storage and restarts empty is
// the environment's way of producing the same stale-read signature the
// weak quorum produces, which is exactly the ambiguity inference-based
// replay can fall into.
func (cl *Cluster) handleGet(t *vm.Thread, n int, msg simnet.Message) {
	st := &cl.sites
	cfg := cl.Cfg
	key := int(msg.Num(0))
	if cfg.Mode == ModeStaleRead && cfg.WipeDomain > 0 {
		w := t.Input(st.nodeWipeIn, t.Machine().Stream(StreamWipe+nodeName(n))).AsInt()
		if w == cfg.WipeDomain-1 && t.Load(st.nodeWipeClear, cl.wiped[n]).AsInt() == 0 {
			for k := 0; k < cfg.TotalKeys(); k++ {
				t.Store(st.nodeWipeClear, cl.ver[n][k], trace.Int(0))
				t.Store(st.nodeWipeClear, cl.val[n][k], trace.Int(0))
				t.Store(st.nodeWipeClear, cl.dead[n][k], trace.Int(0))
			}
			t.Store(st.nodeWipeClear, cl.wiped[n], trace.Int(1))
		}
	}
	ver, dead := cl.effective(t, n, key)
	deadN := int64(0)
	if dead {
		deadN = 1
	}
	cl.Net.Send(t, st.nodeReply, readNodeName(n), msg.From, simnet.Message{
		Kind: MsgGetR, From: readNodeName(n),
		Nums: []int64{
			msg.Num(1), int64(n), int64(key), ver,
			t.Load(st.nodeLoad, cl.val[n][key]).AsInt(),
			deadN,
			t.Load(st.nodeLoad, cl.wiped[n]).AsInt(),
		},
	})
}

// handlePush runs the sending half of one anti-entropy round: stream every
// live entry to the chosen peer replica. Tombstones are not exchanged —
// with a sane grace period the peer's own tombstone version still wins,
// but once the grace period has purged it the stream happily reinstalls
// deleted data.
func (cl *Cluster) handlePush(t *vm.Thread, n int, msg simnet.Message) {
	st := &cl.sites
	dst := int(msg.Num(0))
	if dst == n || dst < 0 || dst >= cl.Cfg.Nodes {
		return
	}
	for key := 0; key < cl.Cfg.TotalKeys(); key++ {
		ver, dead := cl.effective(t, n, key)
		if ver == 0 || dead {
			continue
		}
		cl.Net.Send(t, st.nodePushScan, nodeName(n), nodeName(dst), simnet.Message{
			Kind: MsgSync, From: nodeName(n),
			Nums: []int64{int64(key), ver, t.Load(st.nodeLoad, cl.val[n][key]).AsInt()},
		})
	}
}

// --- coordinator-side helpers (clients, reader, hint agents) ---

// collect gathers replies of the given kind and request id on a
// coordinator's inbox. Replies from superseded requests are discarded.
// timeout 0 blocks (safe in lossless configurations); otherwise the first
// expiry ends collection with whatever arrived.
func (cl *Cluster) collect(t *vm.Thread, site trace.SiteID, me, kind string, reqid int64, need int, timeout uint64) []simnet.Message {
	var got []simnet.Message
	for len(got) < need {
		var msg simnet.Message
		if timeout == 0 {
			msg = cl.Net.Recv(t, site, me)
		} else {
			m2, ok := cl.Net.RecvTimeout(t, site, me, timeout)
			if !ok {
				break
			}
			msg = m2
		}
		if msg.Kind == kind && msg.Num(0) == reqid {
			got = append(got, msg)
		}
	}
	return got
}

// bestReply resolves a read: the highest version among the replies. A
// tombstone is a versioned claim of absence; the zero reply means the key
// was never seen.
type readResult struct {
	node  int64
	ver   int64
	val   int64
	dead  bool
	wiped bool
}

func bestReply(reps []simnet.Message) readResult {
	var best readResult
	for _, r := range reps {
		if v := r.Num(3); v >= best.ver {
			best = readResult{
				node: r.Num(1), ver: v, val: r.Num(4),
				dead: r.Num(5) != 0, wiped: r.Num(6) != 0,
			}
		}
	}
	return best
}

// sendPuts fans a write out to the key's preference list.
func (cl *Cluster) sendPuts(t *vm.Thread, site trace.SiteID, me string, key int, ver, val, reqid int64) []int {
	prefs := cl.Ring.Preference(key, cl.Cfg.N)
	for _, n := range prefs {
		cl.Net.Send(t, site, me, nodeName(n), simnet.Message{
			Kind: MsgPut, From: me,
			Nums: []int64{int64(key), ver, val, reqid, 0},
		})
	}
	return prefs
}

// readQuorum queries the preference list and waits for R replies.
func (cl *Cluster) readQuorum(t *vm.Thread, sendSite, replySite trace.SiteID, me string, key int, reqid int64, timeout uint64) ([]simnet.Message, readResult) {
	for _, n := range cl.Ring.Preference(key, cl.Cfg.N) {
		cl.Net.Send(t, sendSite, me, readNodeName(n), simnet.Message{
			Kind: MsgGet, From: me, Nums: []int64{int64(key), reqid},
		})
	}
	reps := cl.collect(t, replySite, me, MsgGetR, reqid, cl.Cfg.R, timeout)
	return reps, bestReply(reps)
}

// readRepair pushes the freshest live value back to any stale responder.
func (cl *Cluster) readRepair(t *vm.Thread, me string, key int, best readResult, reps []simnet.Message, reqid int64) {
	if best.ver == 0 || best.dead {
		return
	}
	st := &cl.sites
	for _, r := range reps {
		if r.Num(3) < best.ver {
			cl.Net.Send(t, st.cliRepair, me, nodeName(int(r.Num(1))), simnet.Message{
				Kind: MsgPut, From: me,
				Nums: []int64{int64(key), best.ver, best.val, reqid, 1},
			})
		}
	}
}

// --- client workloads ---

// clientThread dispatches to the mode's workload.
func (cl *Cluster) clientThread(t *vm.Thread, c int) {
	switch cl.Cfg.Mode {
	case ModeStaleRead:
		cl.staleClient(t, c)
	case ModeResurrect:
		cl.resurrectClient(t, c)
	case ModeLostHint:
		cl.lostHintClient(t, c)
	}
	t.Send(cl.sites.done, cl.doneCh, trace.Int(int64(c)))
}

// staleClient runs write-then-read rounds over its keys and checks its own
// writes read back: the canonical read-your-writes probe. With W=1 the ack
// races the fan-out replication, with R=1 the read takes the fastest
// single reply — the two relaxations whose composition lets an
// acknowledged write go missing from its own author's next read.
func (cl *Cluster) staleClient(t *vm.Thread, c int) {
	cfg := cl.Cfg
	st := &cl.sites
	me := clientName(c)
	reqid := int64(c+1) << 20
	for round := 0; round < cfg.Rounds; round++ {
		for i := 0; i < cfg.KeysPerClient; i++ {
			key := c*cfg.KeysPerClient + i
			t.ClearTaint()
			payload := t.Input(st.cliPayload, cl.payloadIn).AsInt()
			ver := t.Add(st.cliSeq, cl.seqgen, 1).AsInt()
			reqid++
			cl.sendPuts(t, st.cliPutSend, me, key, ver, payload, reqid)
			acks := cl.collect(t, st.cliReply, me, MsgPutAck, reqid, cfg.W, 0)
			if len(acks) >= cfg.W {
				if ver > t.Load(st.oracle, cl.latest[key]).AsInt() {
					t.Store(st.oracle, cl.latest[key], trace.Int(ver))
				}
				t.Add(st.cliAck, cl.ackedPuts, 1)
			}

			reqid++
			reps, best := cl.readQuorum(t, st.cliGetSend, st.cliReply, me, key, reqid, 0)
			t.Add(st.oracle, cl.reads, 1)
			latest := t.Load(st.oracle, cl.latest[key]).AsInt()
			if best.ver < latest {
				// Stale read. Attribute: a wiped replica lost the write it
				// had; an un-wiped one simply had not received it yet.
				if best.wiped {
					t.Add(st.oracle, cl.staleWiped, 1)
				} else {
					t.Add(st.oracle, cl.staleUnrep, 1)
				}
			}
			cl.readRepair(t, me, key, best, reps, reqid)
			t.Sleep(st.cliPace, cfg.ClientPace)
		}
	}
}

// resurrectClient writes then deletes each of its keys. The delete is
// acknowledged at W of N; the remaining replica's tombstone install rides
// the network while anti-entropy rounds run concurrently. The rewrite
// input is the environment's alternative explanation: the application
// itself legitimately re-creating the key after the delete.
func (cl *Cluster) resurrectClient(t *vm.Thread, c int) {
	cfg := cl.Cfg
	st := &cl.sites
	me := clientName(c)
	reqid := int64(c+1) << 20
	for i := 0; i < cfg.KeysPerClient; i++ {
		key := c*cfg.KeysPerClient + i
		t.ClearTaint()
		payload := t.Input(st.cliPayload, cl.payloadIn).AsInt()
		ver := t.Add(st.cliSeq, cl.seqgen, 1).AsInt()
		reqid++
		cl.sendPuts(t, st.cliPutSend, me, key, ver, payload, reqid)
		cl.collect(t, st.cliReply, me, MsgPutAck, reqid, cfg.W, 0)
		t.Sleep(st.cliPace, cfg.ClientPace)

		dver := t.Add(st.cliSeq, cl.seqgen, 1).AsInt()
		reqid++
		for _, n := range cl.Ring.Preference(key, cfg.N) {
			cl.Net.Send(t, st.cliDelSend, me, nodeName(n), simnet.Message{
				Kind: MsgDel, From: me, Nums: []int64{int64(key), dver, reqid},
			})
		}
		acks := cl.collect(t, st.cliReply, me, MsgDelAck, reqid, cfg.W, 0)
		if len(acks) >= cfg.W {
			t.Store(st.oracle, cl.deletedVer[key], trace.Int(dver))
		}

		if cfg.RewriteDomain > 0 {
			rw := t.Input(st.cliRewriteIn, t.Machine().Stream(StreamRewrite)).AsInt()
			if rw == cfg.RewriteDomain-1 {
				// Application-level re-create: out of the developer's hands.
				rver := t.Add(st.cliSeq, cl.seqgen, 1).AsInt()
				reqid++
				cl.sendPuts(t, st.cliPutSend, me, key, rver, payload, reqid)
				cl.collect(t, st.cliReply, me, MsgPutAck, reqid, cfg.W, 0)
				t.Add(st.oracle, cl.rewrites, 1)
			}
		}
		t.Sleep(st.cliPace, cfg.ClientPace)
	}
}

// lostHintClient writes each of its keys once under the outage: preference
// nodes that fail to acknowledge within the timeout are covered by hints
// on their fallback agents, and the hint acknowledgements count toward W —
// the sloppy quorum that makes the write "durable" on paper only.
func (cl *Cluster) lostHintClient(t *vm.Thread, c int) {
	cfg := cl.Cfg
	st := &cl.sites
	me := clientName(c)
	reqid := int64(c+1) << 20
	for i := 0; i < cfg.KeysPerClient; i++ {
		key := c*cfg.KeysPerClient + i
		t.ClearTaint()
		payload := t.Input(st.cliPayload, cl.payloadIn).AsInt()
		ver := t.Add(st.cliSeq, cl.seqgen, 1).AsInt()
		reqid++
		prefs := cl.sendPuts(t, st.cliPutSend, me, key, ver, payload, reqid)
		acks := cl.collect(t, st.cliReply, me, MsgPutAck, reqid, cfg.W, cfg.AckTimeout)
		acked := make(map[int]bool, len(acks))
		for _, a := range acks {
			acked[int(a.Num(1))] = true
		}
		total := len(acks)
		if total < cfg.W {
			var missing []int
			for _, n := range prefs {
				if !acked[n] {
					missing = append(missing, n)
				}
			}
			fallbacks := cl.Ring.Fallbacks(key, cfg.N, len(missing))
			if len(fallbacks) > 0 {
				reqid++
				sent := 0
				for j, target := range missing {
					f := fallbacks[j%len(fallbacks)]
					cl.Net.Send(t, st.hintSend, me, hintAgentName(f), simnet.Message{
						Kind: MsgHint, From: me,
						Nums: []int64{int64(key), ver, payload, reqid, int64(target)},
					})
					sent++
				}
				hacks := cl.collect(t, st.cliReply, me, MsgHintAck, reqid, sent, cfg.AckTimeout)
				total += len(hacks)
			}
		}
		if total >= cfg.W {
			t.Store(st.oracle, cl.ackedVer[key], trace.Int(ver))
			t.Add(st.cliAck, cl.ackedPuts, 1)
		}
		t.Sleep(st.cliPace, cfg.ClientPace)
	}
}

// --- controllers and agents ---

// syncThread paces anti-entropy rounds: each round advances the epoch
// (against which tombstone grace is measured) and tells one replica to
// push its live entries to another, both drawn from the plan stream.
func (cl *Cluster) syncThread(t *vm.Thread) {
	cfg := cl.Cfg
	st := &cl.sites
	plan := t.Machine().Stream(StreamSyncPlan)
	for g := 0; g < cfg.Syncs; g++ {
		t.Sleep(st.syncPace, cfg.SyncEvery)
		t.Add(st.syncEpoch, cl.epoch, 1)
		pick := t.Input(st.syncPlan, plan).AsInt()
		src := int(pick % int64(cfg.Nodes))
		dst := (src + 1 + int((pick>>8)%int64(cfg.Nodes-1))) % cfg.Nodes
		cl.Net.Send(t, st.syncPushSend, "syncer", nodeName(src), simnet.Message{
			Kind: MsgPush, From: "syncer", Nums: []int64{int64(dst)},
		})
	}
	t.Send(st.done, cl.doneCh, trace.Int(-1))
}

// faultThread scripts the outage: the preference list of the victim key
// (drawn from the down plan) becomes unreachable at start and recovers
// after DownTime.
func (cl *Cluster) faultThread(t *vm.Thread) {
	cfg := cl.Cfg
	st := &cl.sites
	pick := t.Input(st.faultPlan, t.Machine().Stream(StreamDownPlan)).AsInt()
	victim := int(pick % int64(cfg.TotalKeys()))
	if victim < 0 {
		victim = -victim
	}
	downSet := cl.Ring.Preference(victim, cfg.N)
	for _, n := range downSet {
		t.Store(st.faultDown, cl.down[n], trace.Int(1))
	}
	t.Sleep(st.faultDown, cfg.DownTime)
	for _, n := range downSet {
		t.Store(st.faultUp, cl.down[n], trace.Int(0))
	}
	t.Send(st.done, cl.doneCh, trace.Int(-2))
}

// pendingHint is a hint parked on an agent, thread-local state.
type pendingHint struct {
	key, ver, val, target int64
}

// hintAgentThread is node n's hint subsystem. Arriving hints are
// acknowledged immediately (that acknowledgement is what the sloppy
// quorum counts). After a quiet period the agent attempts handoff; an
// owner that does not answer is — in the buggy build — assumed dead and
// the hint is abandoned, silently discarding an acknowledged write. The
// fixed build keeps the hint and retries. The hint-wipe input is the
// environment's alternative: the agent host loses its memory outright.
func (cl *Cluster) hintAgentThread(t *vm.Thread, n int) {
	cfg := cl.Cfg
	st := &cl.sites
	me := hintAgentName(n)
	inbox := cl.Net.MustNode(me).Inbox
	wipeStream := t.Machine().Stream(StreamHintWipe + nodeName(n))
	var pending []pendingHint
	reqid := int64(n+1) << 28

	absorb := func(msg simnet.Message) {
		if msg.Kind != MsgHint {
			return
		}
		pending = append(pending, pendingHint{
			key: msg.Num(0), ver: msg.Num(1), val: msg.Num(2), target: msg.Num(4),
		})
		cl.Net.Send(t, st.hintAck, me, msg.From, simnet.Message{
			Kind: MsgHintAck, From: me,
			Nums: []int64{msg.Num(3), int64(n), msg.Num(0), msg.Num(1)},
		})
	}

	for {
		t.ClearTaint()
		v, ok := t.RecvTimeout(st.hintRecv, inbox, cfg.DrainEvery)
		if ok {
			absorb(simnet.MustDecode(v))
			continue
		}
		if len(pending) == 0 {
			continue
		}
		if cfg.HintWipeDomain > 0 {
			w := t.Input(st.hintWipeIn, wipeStream).AsInt()
			if w == cfg.HintWipeDomain-1 {
				t.Add(st.oracle, cl.hintsWiped, int64(len(pending)))
				pending = nil
				continue
			}
		}
		// Hints can arrive while a handoff attempt is waiting for its ack;
		// absorb appends them to pending, so the batch being attempted is
		// split off first and survivors are merged back afterwards.
		batch := pending
		pending = nil
		var keep []pendingHint
		for _, h := range batch {
			reqid++
			cl.Net.Send(t, st.hintDeliver, me, nodeName(int(h.target)), simnet.Message{
				Kind: MsgPut, From: me,
				Nums: []int64{h.key, h.ver, h.val, reqid, 0},
			})
			delivered := false
			for {
				v, ok := t.RecvTimeout(st.hintDeliver, inbox, cfg.HandoffTimeout)
				if !ok {
					break
				}
				msg := simnet.MustDecode(v)
				if msg.Kind == MsgPutAck && msg.Num(0) == reqid {
					delivered = true
					break
				}
				absorb(msg) // a hint that raced the handoff attempt
			}
			switch {
			case delivered:
				t.Add(st.oracle, cl.handoffs, 1)
			case cfg.DurableHints:
				keep = append(keep, h) // the fix: hold the hint, retry next cycle
			default:
				t.Add(st.hintDrop, cl.abandoned, 1)
			}
		}
		pending = append(keep, pending...)
	}
}

// --- verification reads (main thread) ---

// readBackDeleted re-reads every key whose delete was acknowledged and
// counts the ones that have come back to life.
func (cl *Cluster) readBackDeleted(t *vm.Thread) (deleted, live int64) {
	cfg := cl.Cfg
	st := &cl.sites
	reqid := int64(1) << 40
	for key := 0; key < cfg.TotalKeys(); key++ {
		if t.Load(st.rdNote, cl.deletedVer[key]).AsInt() == 0 {
			continue
		}
		deleted++
		reqid++
		_, best := cl.readQuorum(t, st.rdSend, st.rdReply, "reader", key, reqid, 0)
		if best.ver > 0 && !best.dead {
			live++
		}
	}
	return deleted, live
}

// readBackAcked re-reads every key whose write was acknowledged and counts
// the ones whose acknowledged version is visible on no replica the read
// quorum reached: the acked-but-lost writes.
func (cl *Cluster) readBackAcked(t *vm.Thread) (lost int64) {
	cfg := cl.Cfg
	st := &cl.sites
	reqid := int64(2) << 40
	for key := 0; key < cfg.TotalKeys(); key++ {
		want := t.Load(st.rdNote, cl.ackedVer[key]).AsInt()
		if want == 0 {
			continue
		}
		reqid++
		_, best := cl.readQuorum(t, st.rdSend, st.rdReply, "reader", key, reqid, 0)
		if best.ver < want {
			lost++
		}
	}
	return lost
}
