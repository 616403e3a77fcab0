// Package dynokv implements a Dynamo-style quorum-replicated key-value
// cluster on the deterministic VM and virtual network: the substrate for
// the distributed-consistency scenario family (dynokv-staleread,
// dynokv-resurrect, dynokv-losthint).
//
// The cluster is a consistent-hashing ring with virtual nodes. Every key
// has a preference list of N replica holders; coordination is
// client-driven: the writing client sends the update to all N replicas and
// acknowledges after W replies, the reading client queries the replicas
// and returns the highest version among the first R replies, repairing
// stale responders (read repair). Deletes are tombstone writes. When a
// replica is unreachable, writers fall back to a sloppy quorum: the update
// is parked as a hint on the next healthy node's hint agent, which hands
// it off to the intended owner after recovery (hinted handoff). A
// background anti-entropy process pushes live entries between replicas.
//
// Three injected defect families live in this one substrate, each gated by
// its scenario's configuration:
//
//   - stale reads: with R+W <= N the read and write quorums need not
//     intersect, so an acknowledged write can be invisible to the very
//     client that made it while replication is still in flight
//     (dynokv-staleread; the fix raises both quorums to majorities);
//   - deleted-data resurrection: tombstones are garbage-collected after
//     too short a grace period, so anti-entropy or read repair from a
//     replica that missed the delete reinstalls the dead value
//     (dynokv-resurrect; the fix retains tombstones);
//   - lost acknowledged writes: hints are held only in the agent's
//     memory and abandoned when the first handoff attempt finds the owner
//     still down, so a write acknowledged entirely through hints can
//     vanish (dynokv-losthint; the fix retries handoff until delivery).
//
// Every environment effect — payload contents, anti-entropy pairing, the
// outage plan, replica wipes, hint-storage wipes, application re-writes —
// enters through declared VM input streams, so the recorders persist
// exactly what their determinism model claims and inference-based replay
// searches the same space the paper's §2 warns about.
package dynokv

import (
	"fmt"

	"debugdet/internal/simnet"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Message kinds on the wire.
const (
	MsgPut     = "put"     // coordinator → node: Nums[key, ver, val, reqid, repair]
	MsgPutAck  = "putack"  // node → coordinator: Nums[reqid, node, key, ver]
	MsgGet     = "get"     // coordinator → node: Nums[key, reqid]
	MsgGetR    = "getr"    // node → coordinator: Nums[reqid, node, key, ver, val, dead, wiped]
	MsgDel     = "del"     // coordinator → node: Nums[key, ver, reqid]
	MsgDelAck  = "delack"  // node → coordinator: Nums[reqid, node, key, ver]
	MsgHint    = "hint"    // coordinator → hint agent: Nums[key, ver, val, reqid, target]
	MsgHintAck = "hintack" // hint agent → coordinator: Nums[reqid, node, key, ver]
	MsgPush    = "push"    // syncer → node: Nums[dst] (anti-entropy: push live keys to dst)
	MsgSync    = "sync"    // node → node: Nums[key, ver, val]
)

// Input stream names. The payload stream is the only data-plane input;
// everything else steers control flow and is part of every scenario's
// ControlStreams.
const (
	StreamPayload  = "client.payload"  // per-write payload content (data plane)
	StreamSyncPlan = "sync.plan"       // anti-entropy pairing (control)
	StreamDownPlan = "fault.downplan"  // which preference list the outage takes down (control)
	StreamRewrite  = "client.rewrite"  // application re-write after delete (env)
	StreamWipe     = "fault.wipe."     // replica storage wipe; full name StreamWipe + node name
	StreamHintWipe = "fault.hintwipe." // hint-agent storage wipe; full name StreamHintWipe + node name
)

// Oracle cells: ground-truth accounting the evaluation reads after a run.
// They are part of the program (their updates are ordinary VM operations)
// but no recorder is ever required to persist them.
const (
	CellStaleUnrep  = "oracle.staleUnreplicated"
	CellStaleWiped  = "oracle.staleWiped"
	CellReads       = "oracle.reads"
	CellResurrected = "oracle.resurrectInstalls"
	CellRewrites    = "oracle.rewrites"
	CellAckedPuts   = "oracle.ackedPuts"
	CellAbandoned   = "oracle.hintsAbandoned"
	CellHintsWiped  = "oracle.hintsWiped"
	CellHandoffs    = "oracle.handoffs"
)

// Output streams: the observable behaviour a bug report quotes.
const (
	OutReads       = "reads.total"
	OutStale       = "reads.stale"
	OutDeleted     = "deletes.total"
	OutResurrected = "deletes.resurrected"
	OutAcked       = "writes.acked"
	OutLost        = "writes.lost"
)

// Mode selects which workload phases the cluster runs.
type Mode uint8

// Modes, one per scenario.
const (
	ModeStaleRead Mode = iota
	ModeResurrect
	ModeLostHint
)

// Config sizes one cluster instance.
type Config struct {
	Mode   Mode
	Nodes  int // physical storage nodes
	Vnodes int // ring tokens per physical node
	N      int // replication factor
	R      int // read quorum
	W      int // write quorum

	Clients       int
	KeysPerClient int
	Rounds        int // write/read rounds per key (stale mode)
	Syncs         int // anti-entropy rounds (resurrect mode)

	// GCGraceEpochs is the tombstone lifetime measured in anti-entropy
	// epochs: a tombstone created at epoch e is purged once the epoch
	// counter reaches e + GCGraceEpochs. 0 means tombstones are never
	// purged (the resurrect fix). Epochs are logical time — wall-clock
	// expiry would diverge under schedule-forcing replay, whose virtual
	// clock legitimately differs from the original's.
	GCGraceEpochs int64
	// DurableHints makes hint agents retry handoff until the owner
	// accepts (the losthint fix); false abandons a hint on the first
	// failed attempt.
	DurableHints bool

	// Timing knobs (virtual cycles).
	AckTimeout uint64 // quorum collection timeout (0 = block)
	// HandoffTimeout is how long a hint agent waits for the owner to
	// acknowledge a handoff attempt. It is longer than AckTimeout because
	// a freshly recovered owner drains a backlog; a delivered-but-slowly-
	// acknowledged handoff must not be mistaken for a dead owner.
	HandoffTimeout uint64
	DownTime       uint64 // outage duration (losthint)
	DrainEvery     uint64 // hint agent quiet period between handoff attempts
	ClientPace     uint64 // pause between a client's operations
	SyncEvery      uint64 // pause between anti-entropy rounds
	Settle         uint64 // main-thread pause before the verification reads

	// WriteJitter, when nonzero, overrides the latency jitter of the
	// client→node write links only: the replication and delete fan-out
	// spreads out while acks, reads and anti-entropy stay prompt. The
	// resurrect scenario uses it to let one replica's delete delivery
	// straddle an anti-entropy round.
	WriteJitter uint64

	// Fault input domains: an input equal to domain-1 triggers the fault,
	// so inference synthesizes it with probability 1/domain per draw.
	// 0 disables the fault path entirely.
	WipeDomain     int64 // replica storage wipe (stale mode)
	RewriteDomain  int64 // application re-write after delete (resurrect mode)
	HintWipeDomain int64 // hint-agent storage wipe (losthint mode)
}

// Norm applies defaults and clamps the quorum arithmetic into range.
func (c Config) Norm() Config {
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.Vnodes == 0 {
		c.Vnodes = 5
	}
	if c.N == 0 {
		c.N = c.Nodes
	}
	if c.N > c.Nodes {
		c.N = c.Nodes
	}
	if c.Clients == 0 {
		c.Clients = 2
	}
	if c.KeysPerClient == 0 {
		c.KeysPerClient = 2
	}
	if c.R < 1 {
		c.R = 1
	}
	if c.R > c.N {
		c.R = c.N
	}
	if c.W < 1 {
		c.W = 1
	}
	if c.W > c.N {
		c.W = c.N
	}
	if c.ClientPace == 0 {
		c.ClientPace = 400
	}
	return c
}

// TotalKeys returns the keyspace size; key k belongs to client k/KeysPerClient.
func (c Config) TotalKeys() int { return c.Clients * c.KeysPerClient }

// Cluster is one built instance: all VM object handles plus topology.
type Cluster struct {
	Cfg  Config
	Net  *simnet.Network
	Ring *Ring

	// Per-node per-key store: version, value, tombstone flag, and the
	// anti-entropy epoch at which the tombstone was created.
	ver       [][]trace.ObjID
	val       [][]trace.ObjID
	dead      [][]trace.ObjID
	deadEpoch [][]trace.ObjID

	wiped []trace.ObjID // per-node "storage was wiped" flag
	down  []trace.ObjID // per-node "unreachable" flag

	seqgen trace.ObjID // global version sequencer
	epoch  trace.ObjID // anti-entropy epoch counter

	// Oracles.
	latest     []trace.ObjID // latest acked write version per key
	deletedVer []trace.ObjID // latest acked delete version per key
	ackedVer   []trace.ObjID // version the client considers durable per key

	staleUnrep  trace.ObjID
	staleWiped  trace.ObjID
	reads       trace.ObjID
	resurrected trace.ObjID
	rewrites    trace.ObjID
	ackedPuts   trace.ObjID
	abandoned   trace.ObjID
	hintsWiped  trace.ObjID
	handoffs    trace.ObjID

	doneCh trace.ObjID

	payloadIn trace.ObjID

	sites sites
	m     *vm.Machine
}

// sites holds every instrumentation site; a trace event names its site.
type sites struct {
	cliPayload, cliSeq, cliPutSend, cliGetSend, cliDelSend trace.SiteID
	cliReply, cliAck, cliRepair, cliRewriteIn, cliPace     trace.SiteID
	nodeRecv, nodeDown, nodeLoad, nodeStore, nodeReply     trace.SiteID
	nodeGC, nodeWipeIn, nodeWipeClear                      trace.SiteID
	syncPlan, syncPace, syncEpoch, syncPushSend            trace.SiteID
	nodePushScan, nodeSyncInstall                          trace.SiteID
	faultPlan, faultDown, faultUp                          trace.SiteID
	hintSend, hintRecv, hintAck, hintWipeIn                trace.SiteID
	hintDeliver, hintDrop, hintPace                        trace.SiteID
	rdSend, rdReply, rdNote                                trace.SiteID
	oracle, spawn, done, report                            trace.SiteID
}

func registerSites(m *vm.Machine) sites {
	return sites{
		cliPayload:      m.Site("client.payload.in"),
		cliSeq:          m.Site("client.seq"),
		cliPutSend:      m.Site("client.put.send"),
		cliGetSend:      m.Site("client.get.send"),
		cliDelSend:      m.Site("client.del.send"),
		cliReply:        m.Site("client.reply"),
		cliAck:          m.Site("client.ackcount"),
		cliRepair:       m.Site("client.repair"),
		cliRewriteIn:    m.Site("client.rewrite.in"),
		cliPace:         m.Site("client.pace"),
		nodeRecv:        m.Site("node.recv"),
		nodeDown:        m.Site("node.down"),
		nodeLoad:        m.Site("node.load"),
		nodeStore:       m.Site("node.store"),
		nodeReply:       m.Site("node.reply"),
		nodeGC:          m.Site("node.gc"),
		nodeWipeIn:      m.Site("node.wipe.in"),
		nodeWipeClear:   m.Site("node.wipe.clear"),
		syncPlan:        m.Site("sync.plan"),
		syncPace:        m.Site("sync.pace"),
		syncEpoch:       m.Site("sync.epoch"),
		syncPushSend:    m.Site("sync.push.send"),
		nodePushScan:    m.Site("node.push.scan"),
		nodeSyncInstall: m.Site("node.sync.install"),
		faultPlan:       m.Site("fault.plan"),
		faultDown:       m.Site("fault.down"),
		faultUp:         m.Site("fault.up"),
		hintSend:        m.Site("hint.send"),
		hintRecv:        m.Site("hint.recv"),
		hintAck:         m.Site("hint.ack"),
		hintWipeIn:      m.Site("hint.wipe.in"),
		hintDeliver:     m.Site("hint.deliver"),
		hintDrop:        m.Site("hint.drop"),
		hintPace:        m.Site("hint.pace"),
		rdSend:          m.Site("read.send"),
		rdReply:         m.Site("read.reply"),
		rdNote:          m.Site("read.note"),
		oracle:          m.Site("oracle.note"),
		spawn:           m.Site("main.spawn"),
		done:            m.Site("main.done"),
		report:          m.Site("report.out"),
	}
}

// nodeName is a storage node's write-path network name (put, delete,
// anti-entropy, handoff).
func nodeName(n int) string { return fmt.Sprintf("n%d", n) }

// readNodeName is the node's read-path inbox. Reads travel their own links
// so a get genuinely races the write fan-out instead of queuing behind it
// on one connection — the race the weak-quorum bug needs.
func readNodeName(n int) string { return fmt.Sprintf("n%d.read", n) }

// hintAgentName is the hint subsystem of node n (its own inbox, so hints
// and handoff acks never contend with the storage server's).
func hintAgentName(n int) string { return fmt.Sprintf("h%d", n) }

func clientName(c int) string { return fmt.Sprintf("c%d", c) }

// Build constructs the cluster's objects and topology on a machine. Call
// before vm.Run; registration order is deterministic.
func Build(m *vm.Machine, cfg Config) *Cluster {
	cfg = cfg.Norm()
	cl := &Cluster{Cfg: cfg, m: m, sites: registerSites(m), Ring: NewRing(cfg.Nodes, cfg.Vnodes)}

	cl.Net = simnet.New(m, simnet.Options{
		DefaultLink:   simnet.LinkConfig{LatencyBase: 20, LatencyJitter: cfg.jitter()},
		InboxCapacity: 128,
	})
	for n := 0; n < cfg.Nodes; n++ {
		cl.Net.AddNode(nodeName(n))
		cl.Net.AddNode(readNodeName(n))
	}
	if cfg.Mode == ModeLostHint {
		for n := 0; n < cfg.Nodes; n++ {
			cl.Net.AddNode(hintAgentName(n))
		}
	}
	for c := 0; c < cfg.Clients; c++ {
		cl.Net.AddNode(clientName(c))
	}
	if cfg.Mode == ModeResurrect {
		cl.Net.AddNode("syncer")
	}
	cl.Net.AddNode("reader")
	cl.Net.Build()
	if cfg.WriteJitter > 0 {
		for c := 0; c < cfg.Clients; c++ {
			for n := 0; n < cfg.Nodes; n++ {
				cl.Net.SetLink(clientName(c), nodeName(n), simnet.LinkConfig{
					LatencyBase: 20, LatencyJitter: cfg.WriteJitter,
				})
			}
		}
	}

	k := cfg.TotalKeys()
	cl.ver = make([][]trace.ObjID, cfg.Nodes)
	cl.val = make([][]trace.ObjID, cfg.Nodes)
	cl.dead = make([][]trace.ObjID, cfg.Nodes)
	cl.deadEpoch = make([][]trace.ObjID, cfg.Nodes)
	cl.wiped = make([]trace.ObjID, cfg.Nodes)
	cl.down = make([]trace.ObjID, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		cl.ver[n] = make([]trace.ObjID, k)
		cl.val[n] = make([]trace.ObjID, k)
		cl.dead[n] = make([]trace.ObjID, k)
		cl.deadEpoch[n] = make([]trace.ObjID, k)
		for i := 0; i < k; i++ {
			cl.ver[n][i] = m.NewCell(fmt.Sprintf("ver[%s][%d]", nodeName(n), i), trace.Int(0))
			cl.val[n][i] = m.NewCell(fmt.Sprintf("val[%s][%d]", nodeName(n), i), trace.Int(0))
			cl.dead[n][i] = m.NewCell(fmt.Sprintf("dead[%s][%d]", nodeName(n), i), trace.Int(0))
			cl.deadEpoch[n][i] = m.NewCell(fmt.Sprintf("deadepoch[%s][%d]", nodeName(n), i), trace.Int(0))
		}
		cl.wiped[n] = m.NewCell("wiped:"+nodeName(n), trace.Int(0))
		cl.down[n] = m.NewCell("down:"+nodeName(n), trace.Int(0))
	}

	cl.seqgen = m.NewCell("seqgen", trace.Int(0))
	cl.epoch = m.NewCell("sync.epochcell", trace.Int(0))

	cl.latest = make([]trace.ObjID, k)
	cl.deletedVer = make([]trace.ObjID, k)
	cl.ackedVer = make([]trace.ObjID, k)
	for i := 0; i < k; i++ {
		cl.latest[i] = m.NewCell(fmt.Sprintf("oracle.latest[%d]", i), trace.Int(0))
		cl.deletedVer[i] = m.NewCell(fmt.Sprintf("oracle.deletedver[%d]", i), trace.Int(0))
		cl.ackedVer[i] = m.NewCell(fmt.Sprintf("oracle.ackedver[%d]", i), trace.Int(0))
	}
	cl.staleUnrep = m.NewCell(CellStaleUnrep, trace.Int(0))
	cl.staleWiped = m.NewCell(CellStaleWiped, trace.Int(0))
	cl.reads = m.NewCell(CellReads, trace.Int(0))
	cl.resurrected = m.NewCell(CellResurrected, trace.Int(0))
	cl.rewrites = m.NewCell(CellRewrites, trace.Int(0))
	cl.ackedPuts = m.NewCell(CellAckedPuts, trace.Int(0))
	cl.abandoned = m.NewCell(CellAbandoned, trace.Int(0))
	cl.hintsWiped = m.NewCell(CellHintsWiped, trace.Int(0))
	cl.handoffs = m.NewCell(CellHandoffs, trace.Int(0))

	cl.doneCh = m.NewChan("phase.done", cfg.Clients+2)

	cl.payloadIn = m.DeclareStream(StreamPayload, trace.TaintData)
	m.DeclareStream(StreamSyncPlan, trace.TaintControl)
	m.DeclareStream(StreamDownPlan, trace.TaintControl)
	m.DeclareStream(StreamRewrite, trace.TaintEnv)
	for n := 0; n < cfg.Nodes; n++ {
		m.DeclareStream(StreamWipe+nodeName(n), trace.TaintEnv)
		m.DeclareStream(StreamHintWipe+nodeName(n), trace.TaintEnv)
	}
	return cl
}

// jitter is the link latency jitter for the mode's workload.
func (c Config) jitter() uint64 {
	switch c.Mode {
	case ModeLostHint:
		return 120
	default:
		return 150
	}
}

// Main returns the main-thread body: it starts the network and the mode's
// system threads, waits for the workload, runs the verification reads and
// emits the outputs.
func (cl *Cluster) Main() func(*vm.Thread) {
	return func(t *vm.Thread) {
		cfg := cl.Cfg
		st := &cl.sites
		cl.Net.Start(t)
		for n := 0; n < cfg.Nodes; n++ {
			n := n
			t.SpawnDaemon(st.spawn, nodeName(n), func(t *vm.Thread) { cl.writerThread(t, n) })
			t.SpawnDaemon(st.spawn, readNodeName(n), func(t *vm.Thread) { cl.readThread(t, n) })
		}
		waiters := cfg.Clients
		switch cfg.Mode {
		case ModeResurrect:
			t.Spawn(st.spawn, "syncer", cl.syncThread)
			waiters++
		case ModeLostHint:
			for n := 0; n < cfg.Nodes; n++ {
				n := n
				t.SpawnDaemon(st.spawn, hintAgentName(n), func(t *vm.Thread) { cl.hintAgentThread(t, n) })
			}
			t.Spawn(st.spawn, "faultctl", cl.faultThread)
			waiters++
		}
		for c := 0; c < cfg.Clients; c++ {
			c := c
			t.Spawn(st.spawn, clientName(c), func(t *vm.Thread) { cl.clientThread(t, c) })
		}
		for i := 0; i < waiters; i++ {
			t.Recv(st.done, cl.doneCh)
		}

		switch cfg.Mode {
		case ModeStaleRead:
			stale := t.Load(st.report, cl.staleUnrep).AsInt() + t.Load(st.report, cl.staleWiped).AsInt()
			t.Output(st.report, cl.m.Stream(OutReads), t.Load(st.report, cl.reads))
			t.Output(st.report, cl.m.Stream(OutStale), trace.Int(stale))
		case ModeResurrect:
			if cfg.Settle > 0 {
				t.Sleep(st.rdNote, cfg.Settle)
			}
			deleted, live := cl.readBackDeleted(t)
			t.Output(st.report, cl.m.Stream(OutDeleted), trace.Int(deleted))
			t.Output(st.report, cl.m.Stream(OutResurrected), trace.Int(live))
		case ModeLostHint:
			if cfg.Settle > 0 {
				t.Sleep(st.rdNote, cfg.Settle)
			}
			lost := cl.readBackAcked(t)
			t.Output(st.report, cl.m.Stream(OutAcked), t.Load(st.report, cl.ackedPuts))
			t.Output(st.report, cl.m.Stream(OutLost), trace.Int(lost))
		}
	}
}
