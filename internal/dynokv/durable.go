// Durable storage substrate: a disk-backed single-node store on the VM's
// simulated disk (vm.NewDisk + the Thread disk operations), serving the
// durability scenario family (disk-tornwal, disk-fsyncloss, disk-snapres).
//
// The store is a WAL-structured key-value node: every put appends one
// framed record (see package simdisk) to the write-ahead log, group-commits
// with fsync, and rebuilds its in-memory table by scanning the log after a
// crash. Snapshot records are written inline into the log (log-structured),
// so recovery is a single ordered replay with last-version-wins semantics.
// The crash itself is part of the workload: the node draws a crash point
// from a control input stream, calls DiskCrash at that point — the disk
// image keeps exactly the fsynced prefix, plus whatever the configured
// fault plane adds or removes — wipes its volatile memory cells, runs
// recovery, verifies the recovered state against the acknowledgment oracle,
// and keeps serving as the rebooted node.
//
// Three injected durability defects live in this one substrate, each gated
// by its scenario's configuration:
//
//   - torn-write corruption: the disk tears the first unsynced record at a
//     byte offset on crash; the buggy recovery path decodes records without
//     verifying the checksum trailer (simdisk.DecodeLoose), turning the
//     torn tail into a zero value under a real version (disk-tornwal; the
//     fix verifies the trailer and truncates the log at the first bad
//     record);
//   - acknowledged-write loss: the device reorders one fsync, leaving the
//     newest record volatile while fsync's caller assumes the whole log is
//     durable and acknowledges the client (disk-fsyncloss; the fix issues a
//     sync barrier — which the device never reorders — before
//     acknowledging);
//   - tombstone resurrection: delete is applied to memory only, with no
//     tombstone record in the log, so crash recovery replays the old puts
//     and the deleted key comes back to life (disk-snapres; the fix logs
//     tombstones durably before acknowledging the delete).
//
// Every environment effect — payloads, the crash point, recovery-time bit
// rot, device-side record loss, application re-writes — enters through
// declared VM input streams, mirroring the cluster scenarios above.
package dynokv

import (
	"fmt"

	"debugdet/internal/simdisk"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// DurableMode selects which durability defect the disk-backed node runs.
type DurableMode uint8

// Durable modes, one per scenario.
const (
	DurTornWAL DurableMode = iota
	DurFsyncLoss
	DurSnapRes
)

// WAL record tags (the first field of every framed record).
const (
	recPut  = 0 // (tag, key, ver, val)
	recTomb = 1 // (tag, key, ver)
	recSnap = 2 // (tag, key, ver, val, dead)
)

// Op kinds on the client→node channel (packed into one integer).
const (
	durOpPut  = 0
	durOpDel  = 1
	durOpStop = 2
)

// Durable input stream names.
const (
	StreamDurPayload = "durable.payload"   // per-put payload content (data)
	StreamCrashPlan  = "durable.crashplan" // where the crash lands (control)
	StreamBitRot     = "fault.bitrot"      // recovery-time record rot (env)
	StreamDevLoss    = "fault.devloss"     // device loses a durable record (env)
	StreamDurRewrite = "durable.rewrite"   // application re-write after delete (env)
)

// Durable oracle cells.
const (
	CellDurAcked      = "oracle.durAcked"
	CellTornInstall   = "oracle.tornInstalls"
	CellBitRot        = "oracle.bitRot"
	CellReorderHeld   = "oracle.reorderHeld"
	CellReorderLost   = "oracle.reorderLost"
	CellDevLost       = "oracle.devLost"
	CellDiskResurrect = "oracle.diskResurrects"
	CellDurRewrites   = "oracle.durRewrites"
	CellDurCorrupt    = "oracle.durCorrupt"
	CellDurAlive      = "oracle.durAlive"
)

// Durable output streams.
const (
	OutDurAcked   = "durable.acked"
	OutDurCorrupt = "durable.corrupt"
	OutDurLost    = "durable.lost"
	OutDurAlive   = "durable.alive"
)

// DurableConfig sizes one disk-backed store instance.
type DurableConfig struct {
	Mode DurableMode

	Clients       int
	KeysPerClient int
	Puts          int // puts per key
	GroupCommit   int // fsync every N appended records
	SnapEvery     int // snapshot every N applied ops (snapres; 0 = never)

	// Fixed applies the scenario's fix predicate: checksum-verified
	// recovery (tornwal), barrier-before-ack (fsyncloss), durable
	// tombstones (snapres).
	Fixed bool

	// Disk fault plane, passed to vm.NewDisk.
	TornBytes int // torn-write truncation point (tornwal)
	ReorderAt int // which fsync ordinal the device holds back (fsyncloss)

	// Fault input domains: a draw equal to domain-1 triggers the fault, so
	// inference synthesizes it with probability 1/domain per draw. 0
	// disables the fault path entirely.
	BitRotDomain  int64 // recovery-time record rot (tornwal)
	DevLossDomain int64 // device-side durable record loss (fsyncloss)
	RewriteDomain int64 // application re-write after delete (snapres)

	ClientPace uint64 // pause between a client's operations
}

// Norm applies defaults.
func (c DurableConfig) Norm() DurableConfig {
	if c.Clients == 0 {
		c.Clients = 2
	}
	if c.KeysPerClient == 0 {
		c.KeysPerClient = 2
	}
	if c.Puts == 0 {
		c.Puts = 3
	}
	if c.GroupCommit == 0 {
		c.GroupCommit = 1
	}
	if c.ClientPace == 0 {
		c.ClientPace = 300
	}
	return c
}

// TotalKeys returns the keyspace size; key k belongs to client k/KeysPerClient.
func (c DurableConfig) TotalKeys() int { return c.Clients * c.KeysPerClient }

// baseOps is the production op count: puts, plus one delete per key in
// snapres mode. Environment-injected re-writes add ops beyond this, which
// is why the node loop terminates on client stop markers, not a count.
func (c DurableConfig) baseOps() int {
	ops := c.TotalKeys() * c.Puts
	if c.Mode == DurSnapRes {
		ops += c.TotalKeys()
	}
	return ops
}

// maxVer is the highest version any key can reach: its puts, plus a delete
// and an environment re-write in snapres mode.
func (c DurableConfig) maxVer() int64 { return int64(c.Puts) + 2 }

// durSites holds every instrumentation site; a trace event names its site.
type durSites struct {
	cliPayload, cliSend, cliAck, cliRewriteIn, cliPace trace.SiteID
	nodeRecv, nodeAck, memStore                        trace.SiteID
	walAppend, walFsync, walBarrier, snapScan          trace.SiteID
	crashPlan, crashPoint, recoverScan, recoverInstall trace.SiteID
	bitRotIn, devLossIn, verify, oracle, spawn         trace.SiteID
	done, report                                       trace.SiteID
}

func registerDurSites(m *vm.Machine) durSites {
	return durSites{
		cliPayload:     m.Site("dur.payload.in"),
		cliSend:        m.Site("dur.op.send"),
		cliAck:         m.Site("dur.op.ack"),
		cliRewriteIn:   m.Site("dur.rewrite.in"),
		cliPace:        m.Site("dur.pace"),
		nodeRecv:       m.Site("dur.node.recv"),
		nodeAck:        m.Site("dur.node.ack"),
		memStore:       m.Site("dur.mem.store"),
		walAppend:      m.Site("dur.wal.append"),
		walFsync:       m.Site("dur.wal.fsync"),
		walBarrier:     m.Site("dur.wal.barrier"),
		snapScan:       m.Site("dur.snap.scan"),
		crashPlan:      m.Site("dur.crash.plan"),
		crashPoint:     m.Site("dur.crash.point"),
		recoverScan:    m.Site("dur.recover.scan"),
		recoverInstall: m.Site("dur.recover.install"),
		bitRotIn:       m.Site("dur.bitrot.in"),
		devLossIn:      m.Site("dur.devloss.in"),
		verify:         m.Site("dur.verify"),
		oracle:         m.Site("oracle.note"),
		spawn:          m.Site("main.spawn"),
		done:           m.Site("main.done"),
		report:         m.Site("report.out"),
	}
}

// DurableStore is one built disk-backed store instance.
type DurableStore struct {
	Cfg DurableConfig

	disk trace.ObjID

	// In-memory table, one cell triple per key: the node's volatile state,
	// wiped on crash and rebuilt by recovery.
	memVer, memVal, memDead []trace.ObjID

	// Acknowledgment oracle: per-key, what the client has been told is
	// durable, plus ground-truth accounting cells. Ordinary VM state — no
	// recorder is ever required to persist it.
	ackedVer, ackedVal []trace.ObjID
	everDel, delVer    []trace.ObjID
	devLostK           []trace.ObjID
	written            [][]trace.ObjID // written[k][v]: value put at version v

	acked, tornInstall, bitRot        trace.ObjID
	reorderHeld, reorderLost, devLost trace.ObjID
	resurrect, rewrites               trace.ObjID
	corrupt, alive                    trace.ObjID

	opCh   trace.ObjID
	ackCh  []trace.ObjID
	doneCh trace.ObjID

	payloadIn, crashIn trace.ObjID

	sites durSites
	m     *vm.Machine
}

// packOp packs one client→node operation into an integer channel value.
func packOp(kind, client, key, val int64) int64 {
	return kind<<40 | client<<32 | key<<16 | val
}

func unpackOp(op int64) (kind, client, key, val int64) {
	return op >> 40, (op >> 32) & 0xff, (op >> 16) & 0xffff, op & 0xffff
}

// BuildDurable constructs the store's objects on a machine. Call before
// vm.Run; registration order is deterministic.
func BuildDurable(m *vm.Machine, cfg DurableConfig) *DurableStore {
	cfg = cfg.Norm()
	s := &DurableStore{Cfg: cfg, m: m, sites: registerDurSites(m)}

	s.disk = m.NewDisk("wal0", vm.DiskFaults{
		TornBytes: cfg.TornBytes,
		ReorderAt: cfg.ReorderAt,
	})

	k := cfg.TotalKeys()
	s.memVer = make([]trace.ObjID, k)
	s.memVal = make([]trace.ObjID, k)
	s.memDead = make([]trace.ObjID, k)
	s.ackedVer = make([]trace.ObjID, k)
	s.ackedVal = make([]trace.ObjID, k)
	s.everDel = make([]trace.ObjID, k)
	s.delVer = make([]trace.ObjID, k)
	s.devLostK = make([]trace.ObjID, k)
	s.written = make([][]trace.ObjID, k)
	for i := 0; i < k; i++ {
		s.memVer[i] = m.NewCell(fmt.Sprintf("mem.ver[%d]", i), trace.Int(0))
		s.memVal[i] = m.NewCell(fmt.Sprintf("mem.val[%d]", i), trace.Int(0))
		s.memDead[i] = m.NewCell(fmt.Sprintf("mem.dead[%d]", i), trace.Int(0))
		s.ackedVer[i] = m.NewCell(fmt.Sprintf("oracle.ackver[%d]", i), trace.Int(0))
		s.ackedVal[i] = m.NewCell(fmt.Sprintf("oracle.ackval[%d]", i), trace.Int(0))
		s.everDel[i] = m.NewCell(fmt.Sprintf("oracle.everdel[%d]", i), trace.Int(0))
		s.delVer[i] = m.NewCell(fmt.Sprintf("oracle.delver[%d]", i), trace.Int(0))
		s.devLostK[i] = m.NewCell(fmt.Sprintf("oracle.devlost[%d]", i), trace.Int(0))
		s.written[i] = make([]trace.ObjID, cfg.maxVer()+1)
		for v := range s.written[i] {
			s.written[i][v] = m.NewCell(fmt.Sprintf("oracle.written[%d][%d]", i, v), trace.Int(0))
		}
	}

	s.acked = m.NewCell(CellDurAcked, trace.Int(0))
	s.tornInstall = m.NewCell(CellTornInstall, trace.Int(0))
	s.bitRot = m.NewCell(CellBitRot, trace.Int(0))
	s.reorderHeld = m.NewCell(CellReorderHeld, trace.Int(0))
	s.reorderLost = m.NewCell(CellReorderLost, trace.Int(0))
	s.devLost = m.NewCell(CellDevLost, trace.Int(0))
	s.resurrect = m.NewCell(CellDiskResurrect, trace.Int(0))
	s.rewrites = m.NewCell(CellDurRewrites, trace.Int(0))
	s.corrupt = m.NewCell(CellDurCorrupt, trace.Int(0))
	s.alive = m.NewCell(CellDurAlive, trace.Int(0))

	s.opCh = m.NewChan("dur.ops", 16)
	s.ackCh = make([]trace.ObjID, cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		s.ackCh[c] = m.NewChan(fmt.Sprintf("dur.ack[%d]", c), 1)
	}
	s.doneCh = m.NewChan("dur.done", cfg.Clients+1)

	s.payloadIn = m.DeclareStream(StreamDurPayload, trace.TaintData)
	s.crashIn = m.DeclareStream(StreamCrashPlan, trace.TaintControl)
	m.DeclareStream(StreamBitRot, trace.TaintEnv)
	m.DeclareStream(StreamDevLoss, trace.TaintEnv)
	m.DeclareStream(StreamDurRewrite, trace.TaintEnv)
	return s
}

// Main returns the main-thread body: it starts the node and the clients,
// waits for the workload (which includes the crash, recovery and
// verification), and emits the outputs.
func (s *DurableStore) Main() func(*vm.Thread) {
	return func(t *vm.Thread) {
		st := &s.sites
		t.Spawn(st.spawn, "store0", s.nodeThread)
		for c := 0; c < s.Cfg.Clients; c++ {
			c := c
			t.Spawn(st.spawn, clientName(c), func(t *vm.Thread) { s.durClientThread(t, c) })
		}
		for i := 0; i < s.Cfg.Clients+1; i++ {
			t.Recv(st.done, s.doneCh)
		}
		// The report reads oracle cells at the oracle site and emits plain
		// summaries with a clean register: the report channel is control
		// plane, whatever provenance the counters accumulated.
		emit := func(stream string, cell trace.ObjID) {
			v := t.Load(st.oracle, cell).AsInt()
			t.ClearTaint()
			t.Output(st.report, s.m.Stream(stream), trace.Int(v))
		}
		emit(OutDurAcked, s.acked)
		switch s.Cfg.Mode {
		case DurTornWAL:
			emit(OutDurCorrupt, s.corrupt)
		case DurFsyncLoss:
			lost := t.Load(st.oracle, s.reorderLost).AsInt() + t.Load(st.oracle, s.devLost).AsInt()
			t.ClearTaint()
			t.Output(st.report, s.m.Stream(OutDurLost), trace.Int(lost))
		case DurSnapRes:
			emit(OutDurAlive, s.alive)
		}
	}
}

// durClientThread issues the client's puts (and, in snapres mode, deletes
// plus possible environment-injected re-writes), one acknowledged op at a
// time.
func (s *DurableStore) durClientThread(t *vm.Thread, c int) {
	cfg, st := s.Cfg, &s.sites
	pace := func() {
		if cfg.ClientPace > 0 {
			t.Sleep(st.cliPace, cfg.ClientPace)
		}
	}
	put := func(key int64) {
		val := 1 + t.Input(st.cliPayload, s.payloadIn).AsInt()%1023
		t.Send(st.cliSend, s.opCh, trace.Int(packOp(durOpPut, int64(c), key, val)))
		t.Recv(st.cliAck, s.ackCh[c])
	}
	for k := 0; k < cfg.KeysPerClient; k++ {
		key := int64(c*cfg.KeysPerClient + k)
		for r := 0; r < cfg.Puts; r++ {
			put(key)
			pace()
		}
		if cfg.Mode == DurSnapRes {
			t.Send(st.cliSend, s.opCh, trace.Int(packOp(durOpDel, int64(c), key, 0)))
			t.Recv(st.cliAck, s.ackCh[c])
			if cfg.RewriteDomain > 0 {
				rw := t.Input(st.cliRewriteIn, t.Machine().Stream(StreamDurRewrite)).AsInt()
				if rw == cfg.RewriteDomain-1 {
					// The application re-creates the key it just deleted —
					// a legitimate later write, outside the store's control.
					t.Add(st.oracle, s.rewrites, 1)
					put(key)
				}
			}
			pace()
		}
	}
	t.Send(st.cliSend, s.opCh, trace.Int(packOp(durOpStop, int64(c), 0, 0)))
	t.Send(st.done, s.doneCh, trace.Int(int64(c)))
}

// nodeThread is the disk-backed store: it serves the op stream, appends WAL
// records with group commit, crashes at the planned point, recovers from
// the disk image, verifies the recovered state against the acknowledgment
// oracle, and keeps serving as the rebooted node.
func (s *DurableStore) nodeThread(t *vm.Thread) {
	cfg, st := s.Cfg, &s.sites

	// The crash plan is a control input: where in the op sequence the node
	// goes down. +1 keeps it in [1, baseOps], so the crash always lands
	// inside the production workload.
	plan := t.Input(st.crashPlan, s.crashIn).AsInt()
	crashAfter := 1 + plan%int64(cfg.baseOps())

	ver := make([]int64, cfg.TotalKeys())
	recs := 0 // disk record count (mirrors the log length across crashes)
	var winK, winV, winVal []int64
	applied := int64(0)
	crashed := false
	stops := 0

	fsync := func() {
		w := t.DiskFsync(st.walFsync, s.disk)
		if int(w) < recs {
			// The device held back the newest record: fsync's watermark is
			// short of the append count. The buggy build never looks.
			t.Add(st.oracle, s.reorderHeld, 1)
		}
		if cfg.Fixed && cfg.Mode == DurFsyncLoss {
			t.DiskBarrier(st.walBarrier, s.disk)
		}
	}
	// ackWindow acknowledges every record since the last fsync as durable:
	// the group-commit contract. In fsyncloss mode the acknowledgment can
	// be a lie — the reordered fsync left the record volatile.
	ackWindow := func() {
		for i := range winK {
			t.Store(st.oracle, s.ackedVer[winK[i]], trace.Int(winV[i]))
			t.Store(st.oracle, s.ackedVal[winK[i]], trace.Int(winVal[i]))
			t.Add(st.oracle, s.acked, 1)
		}
		winK, winV, winVal = winK[:0], winV[:0], winVal[:0]
	}

	for stops < cfg.Clients {
		t.ClearTaint()
		op := t.Recv(st.nodeRecv, s.opCh).AsInt()
		kind, client, key, val := unpackOp(op)
		if kind == durOpStop {
			stops++
			continue
		}
		applied++
		switch kind {
		case durOpPut:
			ver[key]++
			v := ver[key]
			t.Store(st.memStore, s.memVer[key], trace.Int(v))
			t.Store(st.memStore, s.memVal[key], trace.Int(val))
			t.Store(st.memStore, s.memDead[key], trace.Int(0))
			t.Store(st.oracle, s.written[key][v], trace.Int(val))
			simdisk.Append(t, st.walAppend, s.disk, recPut, key, v, val)
			recs++
			winK, winV, winVal = append(winK, key), append(winV, v), append(winVal, val)
			if recs%cfg.GroupCommit == 0 {
				fsync()
				ackWindow()
			}
		case durOpDel:
			ver[key]++
			v := ver[key]
			t.Store(st.memStore, s.memVer[key], trace.Int(v))
			t.Store(st.memStore, s.memVal[key], trace.Int(0))
			t.Store(st.memStore, s.memDead[key], trace.Int(1))
			if cfg.Fixed {
				// The fix: the tombstone is durable before the delete is
				// acknowledged. The buggy build applies it to memory only.
				simdisk.Append(t, st.walAppend, s.disk, recTomb, key, v)
				recs++
				fsync()
			}
			t.Store(st.oracle, s.ackedVer[key], trace.Int(v))
			t.Store(st.oracle, s.ackedVal[key], trace.Int(0))
			t.Store(st.oracle, s.everDel[key], trace.Int(1))
			t.Store(st.oracle, s.delVer[key], trace.Int(v))
			t.Add(st.oracle, s.acked, 1)
		}
		if cfg.Mode == DurSnapRes && cfg.SnapEvery > 0 && applied%int64(cfg.SnapEvery) == 0 {
			recs += s.writeSnapshot(t)
			fsync()
		}
		if !crashed && applied == crashAfter {
			recs = s.crashAndRecover(t)
			winK, winV, winVal = winK[:0], winV[:0], winVal[:0]
			crashed = true
		}
		t.Send(st.nodeAck, s.ackCh[client], trace.Int(1))
	}
	if !crashed {
		// Environment re-writes can push the plan past the op count the
		// node actually saw; the crash still happens, at shutdown.
		s.crashAndRecover(t)
	}
	t.Send(st.done, s.doneCh, trace.Int(-1))
}

// writeSnapshot dumps the in-memory table into the log as snapshot records
// and returns how many it appended. Snapshots are honest about memory —
// including the (possibly unlogged) dead flags — so a buggy-build tombstone
// survives a crash only if a snapshot happened to land between the delete
// and the crash.
func (s *DurableStore) writeSnapshot(t *vm.Thread) int {
	st := &s.sites
	n := 0
	for key := 0; key < s.Cfg.TotalKeys(); key++ {
		mv := t.Load(st.snapScan, s.memVer[key]).AsInt()
		if mv == 0 {
			continue
		}
		mval := t.Load(st.snapScan, s.memVal[key]).AsInt()
		mdead := t.Load(st.snapScan, s.memDead[key]).AsInt()
		simdisk.Append(t, st.walAppend, s.disk, recSnap, int64(key), mv, mval, mdead)
		n++
	}
	return n
}

// crashAndRecover is the whole-node crash: the disk keeps its durable image
// (as modified by the fault plane), volatile memory is wiped, the log is
// scanned and replayed, and the recovered state is verified against the
// acknowledgment oracle. Returns the surviving record count so the caller
// can keep its log-length mirror accurate.
func (s *DurableStore) crashAndRecover(t *vm.Thread) int {
	cfg, st := s.Cfg, &s.sites
	// The crash is control-plane provenance: where the node goes down came
	// from the crash-plan input, not from any payload.
	t.ClearTaint()
	t.AddTaint(trace.TaintControl)
	keep := t.DiskCrash(st.crashPoint, s.disk)
	k := cfg.TotalKeys()
	for i := 0; i < k; i++ {
		t.Store(st.crashPoint, s.memVer[i], trace.Int(0))
		t.Store(st.crashPoint, s.memVal[i], trace.Int(0))
		t.Store(st.crashPoint, s.memDead[i], trace.Int(0))
	}

	t.ClearTaint()
	for _, raw := range simdisk.Scan(t, st.recoverScan, s.disk) {
		f, ok := simdisk.Decode(raw)
		if cfg.Mode == DurTornWAL && !cfg.Fixed {
			// The defect: recovery trusts the device. Records are decoded
			// without the checksum trailer, and missing fields default to
			// zero — a torn tail becomes a zero value under a real version.
			if !ok {
				t.Add(st.oracle, s.tornInstall, 1)
			}
			f, ok = simdisk.DecodeLoose(raw), true
		}
		if !ok {
			// Checksum mismatch: the record is torn; the log is valid only
			// up to here. This is the fix the torn-WAL scenario withholds.
			break
		}
		get := func(i int) int64 {
			if i < len(f) {
				return f[i]
			}
			return 0
		}
		tag, key, v := get(0), get(1), get(2)
		if key < 0 || key >= int64(k) {
			continue
		}
		val, dead := get(3), int64(0)
		if tag == recTomb {
			val, dead = 0, 1
		}
		if tag == recSnap {
			dead = get(4)
		}
		if cfg.BitRotDomain > 0 {
			br := t.Input(st.bitRotIn, t.Machine().Stream(StreamBitRot)).AsInt()
			if br == cfg.BitRotDomain-1 {
				// Environment fault: the medium rotted this record; the
				// payload read back is garbage outside the written domain.
				t.Add(st.oracle, s.bitRot, 1)
				val += 1024
			}
		}
		if cfg.DevLossDomain > 0 {
			dl := t.Input(st.devLossIn, t.Machine().Stream(StreamDevLoss)).AsInt()
			if dl == cfg.DevLossDomain-1 {
				// Environment fault: the device lost this durable record.
				t.Add(st.oracle, s.devLost, 1)
				t.Store(st.oracle, s.devLostK[key], trace.Int(1))
				continue
			}
		}
		if v <= t.Load(st.recoverInstall, s.memVer[key]).AsInt() {
			continue
		}
		if dead != 0 {
			val = 0
		}
		if dead == 0 && tag != recPut && tag != recSnap {
			continue
		}
		t.Store(st.recoverInstall, s.memVer[key], trace.Int(v))
		t.Store(st.recoverInstall, s.memVal[key], trace.Int(val))
		t.Store(st.recoverInstall, s.memDead[key], trace.Int(dead))
		if dead == 0 && t.Load(st.recoverInstall, s.everDel[key]).AsInt() != 0 &&
			v <= t.Load(st.recoverInstall, s.delVer[key]).AsInt() {
			// Recovery just reinstalled a value older than an acknowledged
			// delete: the tombstone that should have masked it is missing.
			t.Add(st.oracle, s.resurrect, 1)
		}
	}

	s.verifyRecovered(t)
	return int(keep)
}

// verifyRecovered compares the rebuilt table against the acknowledgment
// oracle: the recovered state must contain every acknowledged write (and
// delete) and nothing that was never written. Runs exactly once, right
// after recovery — before post-crash traffic can mask what the crash did.
func (s *DurableStore) verifyRecovered(t *vm.Thread) {
	cfg, st := s.Cfg, &s.sites
	for key := 0; key < cfg.TotalKeys(); key++ {
		mv := t.Load(st.verify, s.memVer[key]).AsInt()
		mval := t.Load(st.verify, s.memVal[key]).AsInt()
		mdead := t.Load(st.verify, s.memDead[key]).AsInt()
		av := t.Load(st.verify, s.ackedVer[key]).AsInt()
		switch cfg.Mode {
		case DurTornWAL:
			if mv == 0 {
				continue
			}
			if mv > cfg.maxVer() || (mdead == 0 && mval != t.Load(st.verify, s.written[key][mv]).AsInt()) {
				t.Add(st.oracle, s.corrupt, 1)
			}
		case DurFsyncLoss:
			if mv < av {
				// An acknowledged write is missing from the recovered
				// state. Attribute it: device-side loss if the environment
				// dropped this key's record, fsync reordering otherwise.
				if t.Load(st.verify, s.devLostK[key]).AsInt() != 0 {
					continue // already counted in devLost at scan time
				}
				t.Add(st.oracle, s.reorderLost, 1)
			}
		case DurSnapRes:
			if t.Load(st.verify, s.everDel[key]).AsInt() != 0 && mdead == 0 && mv > 0 {
				t.Add(st.oracle, s.alive, 1)
			}
		}
	}
}
