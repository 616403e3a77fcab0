// Package hyperkv implements a Hypertable-like distributed key-value store
// on the deterministic VM and virtual network: the substrate for the
// paper's §4 case study (Hypertable issue 63).
//
// The system has a master, K range servers and M loader clients. The key
// space is split into ranges; each range is owned by one server, and the
// master migrates ranges between servers while clients are loading rows.
// Each range server runs two threads sharing its in-memory store: a data
// thread that commits rows and serves dumps, and an admin thread that
// performs migrations.
//
// The injected defect is the paper's: the data thread checks range
// ownership and then commits the row as two separate steps with no lock
// (when the "fixed" parameter is 0). If a migration marks the range
// not-owned and snapshots its rows inside that window, the row is
// committed to a server that is no longer responsible for it. The load
// appears to succeed — the client receives an ack, no error is logged —
// but subsequent dumps ignore rows outside the server's owned ranges, so
// the table silently loses data.
//
// The same failure signature ("dump returns fewer rows than were acked")
// has two more possible root causes, as in the paper: a range server that
// crashes after the upload but before the dump, and a dump client that
// runs out of memory partway through. Both are modelled as environment
// inputs, so inference-based replay can (wrongly) synthesize them.
package hyperkv

import (
	"fmt"

	"debugdet/internal/simnet"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// Message kinds on the wire.
const (
	MsgCommit   = "commit"   // client → rs.data: Nums[key], Blob[row bytes]
	MsgAck      = "ack"      // rs.data → client: Nums[key]
	MsgNack     = "nack"     // rs.data → client: Nums[key] (not owner)
	MsgDump     = "dump"     // dumper → rs.data
	MsgDumpResp = "dumpresp" // rs.data → dumper: Nums[row count]
	MsgMigrate  = "migrate"  // master → rs.admin: Nums[range, dstServer]
	MsgTransfer = "transfer" // rs.admin → rs.admin: Nums[range, keys...], Blob[rows]
	MsgMigrated = "migrated" // rs.admin → master: Nums[range, dstServer]
)

// Input stream names. Fault and memory streams are the environment
// non-determinism behind the two alternative root causes.
const (
	StreamRowData = "client.rowdata" // per-row payload content (data plane)
	StreamPlan    = "master.plan"    // which ranges migrate where (control)
	StreamMem     = "client.mem"     // dump client memory headroom (env)
	// StreamCrash is the per-server fault switch; the full stream name is
	// StreamCrash + server name, e.g. "fault.crash.rs1".
	StreamCrash = "fault.crash."
)

// Oracle cells: ground-truth accounting the evaluation reads after a run.
// They are part of the program (their updates are ordinary VM operations)
// but no recorder is ever required to persist them.
const (
	CellLostByRace = "oracle.lostByRace"
	CellCrashed    = "oracle.crashed"
	CellOOM        = "oracle.oom"
	CellAcked      = "oracle.acked"
)

// Output streams: the observable behaviour a bug report quotes.
const (
	OutDumpRows = "dump.rows"
	OutAcked    = "load.acked"
)

// RowSize is the fixed row payload size in bytes.
const RowSize = 64

// Config sizes one cluster instance.
type Config struct {
	Servers     int   // range servers (K)
	Clients     int   // loader clients (M)
	RowsPerCli  int   // rows each client loads
	Ranges      int   // number of key ranges
	Migrations  int   // migrations the master performs
	Fixed       bool  // true = proper locking (bug absent)
	CrashDomain int64 // crash input values < this count as "no crash"
}

// Norm applies defaults.
func (c Config) Norm() Config {
	if c.Servers == 0 {
		c.Servers = 3
	}
	if c.Clients == 0 {
		c.Clients = 3
	}
	if c.RowsPerCli == 0 {
		c.RowsPerCli = 16
	}
	if c.Ranges == 0 {
		c.Ranges = c.Servers * 2
	}
	if c.Migrations == 0 {
		c.Migrations = 2
	}
	return c
}

// TotalRows returns the number of rows the workload loads.
func (c Config) TotalRows() int { return c.Clients * c.RowsPerCli }

// Cluster is one built instance: all VM object handles plus topology.
type Cluster struct {
	Cfg Config
	Net *simnet.Network

	// routing[r] is the client-visible owner (server index) of range r,
	// maintained by the master.
	routing []trace.ObjID
	// owned[s][r] is server s's own view of whether it owns range r.
	owned [][]trace.ObjID
	// snapdone[s][r] marks that a migration snapshot of range r on
	// server s completed (oracle for precise loss attribution).
	snapdone [][]trace.ObjID
	// rows[s][k] is server s's stored row k (Nil = absent).
	rows [][]trace.ObjID
	// lock[s] serializes commit/migrate on server s (used when Fixed).
	lock []trace.ObjID

	lostByRace trace.ObjID
	crashed    trace.ObjID
	oomCell    trace.ObjID
	acked      trace.ObjID
	crashFlag  []trace.ObjID // per-server "has crashed" flag

	doneCh trace.ObjID

	outRows  trace.ObjID
	outAcked trace.ObjID

	sites sites
	m     *vm.Machine
}

// sites holds every instrumentation site; a trace event names its site.
type sites struct {
	cliRoute, cliDataIn, cliSend, cliReply, cliAckCount         trace.SiteID
	rsRecv, rsCheck, rsWindow, rsStore, rsOracle, rsReply       trace.SiteID
	rsLock, rsUnlock                                            trace.SiteID
	rsDumpRecv, rsDumpScan, rsDumpReply, rsCrashIn, rsCrashMark trace.SiteID
	admRecv, admMark, admSnap, admSnapDone, admXfer, admInstall trace.SiteID
	admOwn, admConfirm                                          trace.SiteID
	mstPlan, mstSend, mstRecv, mstRoute, mstSleep               trace.SiteID
	dmpMem, dmpSend, dmpRecv, dmpOut, dmpOracle                 trace.SiteID
	spawn, done                                                 trace.SiteID
}

func registerSites(m *vm.Machine) sites {
	return sites{
		cliRoute:    m.Site("client.route"),
		cliDataIn:   m.Site("client.datain"),
		cliSend:     m.Site("client.commit.send"),
		cliReply:    m.Site("client.reply"),
		cliAckCount: m.Site("client.ackcount"),
		rsRecv:      m.Site("rs.commit.recv"),
		rsCheck:     m.Site("rs.commit.check"),
		rsWindow:    m.Site("rs.commit.window"),
		rsStore:     m.Site("rs.commit.store"),
		rsOracle:    m.Site("rs.commit.oracle"),
		rsReply:     m.Site("rs.commit.reply"),
		rsLock:      m.Site("rs.lock"),
		rsUnlock:    m.Site("rs.unlock"),
		rsDumpRecv:  m.Site("rs.dump.recv"),
		rsDumpScan:  m.Site("rs.dump.scan"),
		rsDumpReply: m.Site("rs.dump.reply"),
		rsCrashIn:   m.Site("rs.dump.crashcheck"),
		rsCrashMark: m.Site("rs.dump.crashmark"),
		admRecv:     m.Site("rs.admin.recv"),
		admMark:     m.Site("rs.migrate.mark"),
		admSnap:     m.Site("rs.migrate.snapshot"),
		admSnapDone: m.Site("rs.migrate.snapdone"),
		admXfer:     m.Site("rs.migrate.transfer"),
		admInstall:  m.Site("rs.transfer.install"),
		admOwn:      m.Site("rs.transfer.own"),
		admConfirm:  m.Site("rs.transfer.confirm"),
		mstPlan:     m.Site("master.plan"),
		mstSend:     m.Site("master.migrate.send"),
		mstRecv:     m.Site("master.recv"),
		mstRoute:    m.Site("master.route.update"),
		mstSleep:    m.Site("master.pace"),
		dmpMem:      m.Site("dump.memcheck"),
		dmpSend:     m.Site("dump.send"),
		dmpRecv:     m.Site("dump.recv"),
		dmpOut:      m.Site("dump.output"),
		dmpOracle:   m.Site("dump.oracle"),
		spawn:       m.Site("main.spawn"),
		done:        m.Site("main.done"),
	}
}

// serverName returns the base node name of server s.
func serverName(s int) string { return fmt.Sprintf("rs%d", s) }

// dataNode and adminNode are the two inboxes of one range server.
func dataNode(s int) string  { return serverName(s) + ".data" }
func adminNode(s int) string { return serverName(s) + ".admin" }

func clientName(c int) string { return fmt.Sprintf("c%d", c) }

// rangeOf maps a key to its range.
func (c Config) rangeOf(key int) int {
	n := c.TotalRows()
	if n == 0 {
		return 0
	}
	r := key * c.Ranges / n
	if r >= c.Ranges {
		r = c.Ranges - 1
	}
	return r
}

// initialOwner is the range's owner before any migration.
func (c Config) initialOwner(r int) int { return r % c.Servers }

// Build constructs the cluster's objects and topology on a machine. Call
// before vm.Run; registration order is deterministic.
func Build(m *vm.Machine, cfg Config) *Cluster {
	cfg = cfg.Norm()
	cl := &Cluster{Cfg: cfg, m: m, sites: registerSites(m)}

	cl.Net = simnet.New(m, simnet.Options{
		DefaultLink:   simnet.LinkConfig{LatencyBase: 20},
		InboxCapacity: 128,
	})
	cl.Net.AddNode("master")
	cl.Net.AddNode("dumper")
	for s := 0; s < cfg.Servers; s++ {
		cl.Net.AddNode(dataNode(s))
		cl.Net.AddNode(adminNode(s))
	}
	for c := 0; c < cfg.Clients; c++ {
		cl.Net.AddNode(clientName(c))
	}
	cl.Net.Build()

	n := cfg.TotalRows()
	cl.routing = make([]trace.ObjID, cfg.Ranges)
	for r := 0; r < cfg.Ranges; r++ {
		cl.routing[r] = m.NewCell(fmtRouting(r), trace.Int(int64(cfg.initialOwner(r))))
	}
	cl.owned = make([][]trace.ObjID, cfg.Servers)
	cl.snapdone = make([][]trace.ObjID, cfg.Servers)
	cl.rows = make([][]trace.ObjID, cfg.Servers)
	cl.lock = make([]trace.ObjID, cfg.Servers)
	cl.crashFlag = make([]trace.ObjID, cfg.Servers)
	for s := 0; s < cfg.Servers; s++ {
		cl.owned[s] = make([]trace.ObjID, cfg.Ranges)
		cl.snapdone[s] = make([]trace.ObjID, cfg.Ranges)
		for r := 0; r < cfg.Ranges; r++ {
			init := int64(0)
			if cfg.initialOwner(r) == s {
				init = 1
			}
			cl.owned[s][r] = m.NewCell(fmt.Sprintf("owned[%s][%d]", serverName(s), r), trace.Int(init))
			cl.snapdone[s][r] = m.NewCell(fmt.Sprintf("snapdone[%s][%d]", serverName(s), r), trace.Int(0))
		}
		cl.rows[s] = make([]trace.ObjID, n)
		for k := 0; k < n; k++ {
			cl.rows[s][k] = m.NewCell(fmt.Sprintf("rows[%s][%d]", serverName(s), k), trace.Nil)
		}
		cl.lock[s] = m.NewMutex("rangelock:" + serverName(s))
		cl.crashFlag[s] = m.NewCell("crashflag:"+serverName(s), trace.Int(0))
	}

	cl.lostByRace = m.NewCell(CellLostByRace, trace.Int(0))
	cl.crashed = m.NewCell(CellCrashed, trace.Int(0))
	cl.oomCell = m.NewCell(CellOOM, trace.Int(0))
	cl.acked = m.NewCell(CellAcked, trace.Int(0))

	cl.doneCh = m.NewChan("phase.done", cfg.Clients+1)

	m.DeclareStream(StreamRowData, trace.TaintData)
	m.DeclareStream(StreamPlan, trace.TaintControl)
	m.DeclareStream(StreamMem, trace.TaintEnv)
	for s := 0; s < cfg.Servers; s++ {
		m.DeclareStream(StreamCrash+serverName(s), trace.TaintEnv)
	}
	cl.outRows = m.Stream(OutDumpRows)
	cl.outAcked = m.Stream(OutAcked)
	return cl
}

// Main returns the main-thread body: it starts the network and all system
// threads, waits for the load phase, performs the dump and emits the
// outputs.
func (cl *Cluster) Main() func(*vm.Thread) {
	return func(t *vm.Thread) {
		cl.Net.Start(t)
		for s := 0; s < cl.Cfg.Servers; s++ {
			s := s
			t.SpawnDaemon(cl.sites.spawn, dataNode(s), func(t *vm.Thread) { cl.dataThread(t, s) })
			t.SpawnDaemon(cl.sites.spawn, adminNode(s), func(t *vm.Thread) { cl.adminThread(t, s) })
		}
		t.Spawn(cl.sites.spawn, "master", cl.masterThread)
		for c := 0; c < cl.Cfg.Clients; c++ {
			c := c
			t.Spawn(cl.sites.spawn, clientName(c), func(t *vm.Thread) { cl.clientThread(t, c) })
		}
		// Wait for every client and the master to finish.
		for i := 0; i < cl.Cfg.Clients+1; i++ {
			t.Recv(cl.sites.done, cl.doneCh)
		}
		cl.dump(t)
	}
}
