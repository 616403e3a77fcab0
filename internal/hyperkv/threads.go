package hyperkv

import (
	"strings"

	"debugdet/internal/simnet"
	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

// rowBlob derives a fixed-size row payload from an input integer. Replays
// that re-draw data inputs produce different contents of identical shape.
func rowBlob(seedVal int64) string {
	var b strings.Builder
	b.Grow(RowSize)
	x := uint64(seedVal)*2654435761 + 12345
	for range RowSize {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b.WriteByte(byte(x))
	}
	return b.String()
}

// clientThread loads the client's shard of rows, routing each commit to
// the range's current owner and retrying on not-owner rejections.
func (cl *Cluster) clientThread(t *vm.Thread, c int) {
	cfg := cl.Cfg
	st := &cl.sites
	me := clientName(c)
	lo, hi := c*cfg.RowsPerCli, (c+1)*cfg.RowsPerCli

	for key := lo; key < hi; key++ {
		r := cfg.rangeOf(key)
		// The payload is data-plane input; everything after ClearTaint
		// carries only the payload's provenance until routing is read.
		t.ClearTaint()
		seedVal := t.Input(st.cliDataIn, t.Machine().Stream(StreamRowData)).AsInt()
		blob := rowBlob(seedVal)

		for {
			owner := int(t.Load(st.cliRoute, cl.routing[r]).AsInt())
			cl.Net.Send(t, st.cliSend, me, dataNode(owner), simnet.Message{
				Kind: MsgCommit,
				From: me,
				Nums: []int64{int64(key)},
				Blob: blob,
			})
			reply := cl.Net.Recv(t, st.cliReply, me)
			if reply.Kind == MsgAck {
				t.Add(st.cliAckCount, cl.acked, 1)
				break
			}
			// Not the owner anymore: the routing table will catch up
			// with the migration; pause briefly and retry.
			t.Sleep(st.cliRoute, 200)
		}
	}
	t.Send(cl.sites.done, cl.doneCh, trace.Int(int64(c)))
}

// dataThread is a range server's commit-and-dump worker. It shares the
// store with the admin thread; when the cluster is not Fixed, the
// ownership check and the row store race against migrations.
func (cl *Cluster) dataThread(t *vm.Thread, s int) {
	cfg := cl.Cfg
	st := &cl.sites
	me := dataNode(s)
	for {
		t.ClearTaint()
		msg := cl.Net.Recv(t, st.rsRecv, me)
		switch msg.Kind {
		case MsgCommit:
			cl.handleCommit(t, s, msg)
		case MsgDump:
			if t.Load(st.rsCrashMark, cl.crashFlag[s]).AsInt() != 0 {
				continue // already dead: never replies
			}
			// The fault switch models a server that crashes after the
			// upload but before serving dumps — one of the paper's
			// three possible root causes for the data-loss signature.
			crash := t.Input(st.rsCrashIn, t.Machine().Stream(StreamCrash+serverName(s))).AsInt()
			if crash >= cfg.CrashDomain && cfg.CrashDomain > 0 {
				t.Store(st.rsCrashMark, cl.crashFlag[s], trace.Int(1))
				t.Add(st.rsCrashMark, cl.crashed, 1)
				continue // crashed: no reply, dumper times out
			}
			count := cl.scanOwnedRows(t, s)
			cl.Net.Send(t, st.rsDumpReply, me, msg.From, simnet.Message{
				Kind: MsgDumpResp,
				From: me,
				Nums: []int64{count},
			})
		}
	}
}

// handleCommit performs the ownership check and the row store — the
// paper's racy window lives between them when Fixed is false.
func (cl *Cluster) handleCommit(t *vm.Thread, s int, msg simnet.Message) {
	cfg := cl.Cfg
	st := &cl.sites
	key := int(msg.Num(0))
	r := cfg.rangeOf(key)

	if cfg.Fixed {
		t.Lock(st.rsLock, cl.lock[s])
	}
	owned := t.Load(st.rsCheck, cl.owned[s][r]).AsInt()
	if owned == 0 {
		if cfg.Fixed {
			t.Unlock(st.rsUnlock, cl.lock[s])
		}
		cl.Net.Send(t, st.rsReply, dataNode(s), msg.From, simnet.Message{
			Kind: MsgNack, From: dataNode(s), Nums: []int64{int64(key)},
		})
		return
	}
	if !cfg.Fixed {
		// The unprotected window: a migration can mark the range
		// not-owned and snapshot its rows right here.
		t.Yield(st.rsWindow)
	}
	t.Store(st.rsStore, cl.rows[s][key], trace.Blob(msg.Blob))
	// Oracle accounting (not part of the store's logic): if the range was
	// migrated away and its snapshot already completed, this row just
	// vanished — committed to a server that will ignore it.
	stillOwned := t.Load(st.rsOracle, cl.owned[s][r]).AsInt()
	snapDone := t.Load(st.rsOracle, cl.snapdone[s][r]).AsInt()
	if stillOwned == 0 && snapDone == 1 {
		t.Add(st.rsOracle, cl.lostByRace, 1)
	}
	if cfg.Fixed {
		t.Unlock(st.rsUnlock, cl.lock[s])
	}
	cl.Net.Send(t, st.rsReply, dataNode(s), msg.From, simnet.Message{
		Kind: MsgAck, From: dataNode(s), Nums: []int64{int64(key)},
	})
}

// scanOwnedRows counts the rows the server would return in a dump: only
// rows in ranges it currently owns. Mistakenly committed rows are merely
// ignored — the silent-loss mechanism.
func (cl *Cluster) scanOwnedRows(t *vm.Thread, s int) int64 {
	cfg := cl.Cfg
	st := &cl.sites
	var count int64
	for r := 0; r < cfg.Ranges; r++ {
		if t.Load(st.rsDumpScan, cl.owned[s][r]).AsInt() == 0 {
			continue
		}
		for _, key := range cfg.keysOfRange(r) {
			if !t.Load(st.rsDumpScan, cl.rows[s][key]).IsNil() {
				count++
			}
		}
	}
	return count
}

// keysOfRange enumerates the keys belonging to a range.
func (c Config) keysOfRange(r int) []int {
	var keys []int
	for k := 0; k < c.TotalRows(); k++ {
		if c.rangeOf(k) == r {
			keys = append(keys, k)
		}
	}
	return keys
}

// adminThread handles migrations on a range server: outgoing snapshots and
// incoming transfers.
func (cl *Cluster) adminThread(t *vm.Thread, s int) {
	cfg := cl.Cfg
	st := &cl.sites
	me := adminNode(s)
	for {
		t.ClearTaint()
		msg := cl.Net.Recv(t, st.admRecv, me)
		switch msg.Kind {
		case MsgMigrate:
			r := int(msg.Num(0))
			dst := int(msg.Num(1))
			if cfg.Fixed {
				t.Lock(st.rsLock, cl.lock[s])
			}
			t.Store(st.admMark, cl.owned[s][r], trace.Int(0))
			var keys []int64
			var blob strings.Builder
			rangeKeys := cfg.keysOfRange(r)
			blob.Grow(len(rangeKeys) * RowSize)
			for _, key := range rangeKeys {
				v := t.Load(st.admSnap, cl.rows[s][key])
				if v.IsNil() {
					continue
				}
				keys = append(keys, int64(key))
				blob.WriteString(v.Str)
			}
			t.Store(st.admSnapDone, cl.snapdone[s][r], trace.Int(1))
			if cfg.Fixed {
				t.Unlock(st.rsUnlock, cl.lock[s])
			}
			nums := append([]int64{int64(r)}, keys...)
			cl.Net.Send(t, st.admXfer, me, adminNode(dst), simnet.Message{
				Kind: MsgTransfer, From: me, Nums: nums, Blob: blob.String(),
			})
		case MsgTransfer:
			r := int(msg.Num(0))
			if cfg.Fixed {
				t.Lock(st.rsLock, cl.lock[s])
			}
			for i, key := range msg.Nums[1:] {
				t.Store(st.admInstall, cl.rows[s][key], trace.Blob(msg.Blob[i*RowSize:(i+1)*RowSize]))
			}
			t.Store(st.admOwn, cl.owned[s][r], trace.Int(1))
			t.Store(st.admOwn, cl.snapdone[s][r], trace.Int(0))
			if cfg.Fixed {
				t.Unlock(st.rsUnlock, cl.lock[s])
			}
			cl.Net.Send(t, st.admConfirm, me, "master", simnet.Message{
				Kind: MsgMigrated, From: me, Nums: []int64{int64(r), int64(s)},
			})
		}
	}
}

// masterThread paces a few migrations through the cluster while the load
// is in flight, updating the client routing table as each completes.
func (cl *Cluster) masterThread(t *vm.Thread) {
	cfg := cl.Cfg
	st := &cl.sites
	plan := t.Machine().Stream(StreamPlan)
	for g := 0; g < cfg.Migrations; g++ {
		// Pace migrations into the middle of the load phase.
		t.Sleep(st.mstSleep, 1500)
		pick := t.Input(st.mstPlan, plan).AsInt()
		r := int(pick % int64(cfg.Ranges))
		src := int(t.Load(st.mstRoute, cl.routing[r]).AsInt())
		dst := (src + 1 + int((pick>>8)%int64(cfg.Servers-1))) % cfg.Servers
		if dst == src {
			dst = (src + 1) % cfg.Servers
		}
		cl.Net.Send(t, st.mstSend, "master", adminNode(src), simnet.Message{
			Kind: MsgMigrate, From: "master", Nums: []int64{int64(r), int64(dst)},
		})
		// Wait for completion, then repoint clients.
		for {
			conf := cl.Net.Recv(t, st.mstRecv, "master")
			if conf.Kind == MsgMigrated && int(conf.Num(0)) == r {
				t.Store(st.mstRoute, cl.routing[r], trace.Int(conf.Num(1)))
				break
			}
		}
	}
	t.Send(cl.sites.done, cl.doneCh, trace.Int(-1))
}

// dump runs the paper's verification phase: query every server for its
// owned rows and compare against the acked count. The dump client itself
// has a possible failure mode — running out of memory partway — which is
// the third root-cause candidate.
func (cl *Cluster) dump(t *vm.Thread) {
	cfg := cl.Cfg
	st := &cl.sites
	mem := t.Input(st.dmpMem, t.Machine().Stream(StreamMem)).AsInt()
	var total int64
	for s := 0; s < cfg.Servers; s++ {
		cl.Net.Send(t, st.dmpSend, "dumper", dataNode(s), simnet.Message{
			Kind: MsgDump, From: "dumper",
		})
		resp, ok := cl.Net.RecvTimeout(t, st.dmpRecv, "dumper", 60000)
		if ok && resp.Kind == MsgDumpResp {
			total += resp.Num(0)
		}
		if mem == 0 && s == 0 {
			// Out of memory after the first server's rows: the dump
			// aborts and reports what it has.
			t.Store(st.dmpOracle, cl.oomCell, trace.Int(1))
			break
		}
	}
	t.Output(st.dmpOut, cl.outRows, trace.Int(total))
	t.Output(st.dmpOut, cl.outAcked, t.Load(st.dmpOut, cl.acked))
}
