package sim_test

import (
	"testing"

	"debugdet/sim"
	"debugdet/trace"
)

// TestDiskEndToEnd drives the public simulated-disk surface as a workload
// author would: a WAL of framed records, a group fsync, an injected torn
// write at crash, and a recovery scan that detects the torn tail.
func TestDiskEndToEnd(t *testing.T) {
	m := sim.New(sim.Config{Seed: 5, CollectTrace: true})
	d := m.NewDisk("wal", sim.DiskFaults{TornBytes: 12})
	site := m.Site("disk.op")

	var recovered, torn int
	res := m.Run(func(th *sim.Thread) {
		sim.AppendRecord(th, site, d, 1, 100)
		sim.AppendRecord(th, site, d, 2, 200)
		th.DiskFsync(site, d)
		sim.AppendRecord(th, site, d, 3, 300) // volatile: torn at crash
		th.DiskCrash(site, d)
		for _, raw := range sim.ScanDisk(th, site, d) {
			if fields, ok := sim.DecodeRecord(raw); ok {
				if len(fields) != 2 {
					t.Errorf("record has %d fields, want 2", len(fields))
				}
				recovered++
			} else {
				torn++
			}
		}
	})
	if res.Outcome != sim.OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if recovered != 2 || torn != 1 {
		t.Fatalf("recovered %d whole + %d torn records, want 2 + 1", recovered, torn)
	}

	// Inspection surface: name, length, durable watermark, records.
	id, ok := m.DiskID("wal")
	if !ok || id != d {
		t.Fatal("DiskID lookup failed")
	}
	if m.DiskName(d) != "wal" {
		t.Fatalf("DiskName = %q", m.DiskName(d))
	}
	// Crash survivors (including the torn record) are durable: they are
	// what a reboot finds on the device.
	if m.DiskLen(d) != 3 || m.DiskDurable(d) != 3 {
		t.Fatalf("len=%d durable=%d, want 3/3", m.DiskLen(d), m.DiskDurable(d))
	}
	recs := m.DiskRecords(d)
	if len(recs) != 3 || len(recs[2].Str) != 12 {
		t.Fatalf("records = %v", recs)
	}

	// The disk image flows through the public snapshot surface.
	snap := m.Snapshot(sim.NoRunningThread)
	if len(snap.Disks) != 1 {
		t.Fatalf("snapshot carries %d disks, want 1", len(snap.Disks))
	}
	var ds sim.DiskSnap = snap.Disks[0]
	if ds.Durable != 3 || ds.Fsyncs != 1 || len(ds.Recs) != 3 {
		t.Fatalf("disk snapshot = %+v", ds)
	}
	// A whole record round-trips through the public codec.
	if fields, ok := sim.DecodeRecord(sim.EncodeRecord(9, 9)); !ok || len(fields) != 2 {
		t.Fatal("EncodeRecord/DecodeRecord round trip failed")
	}
	// Disk operations appear in the collected trace as first-class events.
	seen := 0
	for _, e := range res.Trace.Events {
		switch e.Kind {
		case trace.EvDiskWrite, trace.EvDiskRead, trace.EvDiskFsync, trace.EvDiskCrash:
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("no disk events in the trace")
	}
}
