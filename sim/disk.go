package sim

import (
	"debugdet/internal/simdisk"
	"debugdet/internal/vm"
	"debugdet/trace"
)

// Simulated-disk surface (DESIGN.md §7). A disk is a VM resource created
// with Machine.NewDisk: an append-only record store whose write, read,
// fsync, barrier and crash operations are scheduled, costed and traced
// like every other VM operation, so storage-dependent executions record
// and replay under every determinism model. The fault plane (DiskFaults)
// and the crash operation make durability bugs — torn writes, dropped
// un-fsynced records, reordered fsyncs — deterministic functions of the
// seed.
//
// Inspect disk state through the Machine methods DiskID, DiskName,
// DiskLen, DiskDurable and DiskRecords; snapshots carry the full disk
// image (DiskSnap), so checkpointed Seek restores storage exactly.

// DiskFaults configures a disk's injectable fault plane. The zero value
// is a fault-free disk.
type DiskFaults = vm.DiskFaults

// DiskSnap is a snapshotted disk image: records, durable watermark and
// lifetime fsync count.
type DiskSnap = vm.DiskSnap

// EncodeRecord frames int64 fields as one checksummed WAL record
// (simdisk framing). Torn prefixes of the encoding fail DecodeRecord.
func EncodeRecord(fields ...int64) []byte { return []byte(simdisk.Encode(fields...)) }

// DecodeRecord unframes a WAL record, verifying its checksum trailer; ok
// is false for torn or corrupt records.
func DecodeRecord(b []byte) (fields []int64, ok bool) { return simdisk.Decode(string(b)) }

// AppendRecord frames the fields and writes them as one record on the
// disk. The write is volatile until an fsync or barrier.
func AppendRecord(t *Thread, site trace.SiteID, disk trace.ObjID, fields ...int64) {
	simdisk.Append(t, site, disk, fields...)
}

// ScanDisk reads every record off the disk, oldest first. Raw bytes are
// returned — possibly torn — for DecodeRecord to interpret; each is the
// caller's own copy.
func ScanDisk(t *Thread, site trace.SiteID, disk trace.ObjID) [][]byte {
	var recs [][]byte
	for _, r := range simdisk.Scan(t, site, disk) {
		recs = append(recs, []byte(r))
	}
	return recs
}
