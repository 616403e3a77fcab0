package simdisk

import (
	"testing"

	"debugdet/internal/trace"
	"debugdet/internal/vm"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := [][]int64{
		{},
		{0},
		{7},
		{1, 2, 3},
		{-1, 1 << 62, 0, 42},
	}
	for _, fields := range cases {
		b := Encode(fields...)
		if len(b) != fieldBytes*(len(fields)+1) {
			t.Fatalf("Encode(%v) = %d bytes, want %d", fields, len(b), fieldBytes*(len(fields)+1))
		}
		got, ok := Decode(b)
		if !ok {
			t.Fatalf("Decode rejected a whole record %v", fields)
		}
		if len(got) != len(fields) {
			t.Fatalf("Decode(%v) = %v", fields, got)
		}
		for i := range fields {
			if got[i] != fields[i] {
				t.Fatalf("Decode(%v)[%d] = %d", fields, i, got[i])
			}
		}
	}
}

// TestDecodeRejectsEveryTruncation: a record torn at any byte boundary —
// the VM's torn-write fault model — must fail the checksum path.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	b := Encode(3, 1000, 77, 512)
	for n := 0; n < len(b); n++ {
		if _, ok := Decode(b[:n]); ok {
			t.Fatalf("Decode accepted a %d-byte prefix of a %d-byte record", n, len(b))
		}
	}
}

func TestDecodeRejectsBitFlip(t *testing.T) {
	b := Encode(3, 1000, 77)
	for i := range b {
		mut := []byte(b)
		mut[i] ^= 0x40
		if _, ok := Decode(string(mut)); ok {
			t.Fatalf("Decode accepted a record with byte %d flipped", i)
		}
	}
}

// TestDecodeLooseAgreesOnWholeRecords: the buggy path is only buggy on
// torn input; on whole records it must agree with Decode, or the fixed
// and buggy recovery paths would diverge even without a fault.
func TestDecodeLooseAgreesOnWholeRecords(t *testing.T) {
	fields := []int64{2, 9, 4, 1}
	b := Encode(fields...)
	loose := DecodeLoose(b)
	strict, _ := Decode(b)
	if len(loose) != len(strict) {
		t.Fatalf("loose=%v strict=%v", loose, strict)
	}
	for i := range strict {
		if loose[i] != strict[i] {
			t.Fatalf("loose[%d]=%d strict[%d]=%d", i, loose[i], i, strict[i])
		}
	}
}

// TestDecodeLooseOnTornRecord: tearing a 4-field record at byte 28 (inside
// the fourth field) pads to 32 bytes, drops the presumed-checksum word, and
// yields the first three fields — the zero-default val installation the
// disk-tornwal scenario turns into visible corruption.
func TestDecodeLooseOnTornRecord(t *testing.T) {
	b := Encode(0, 1, 2, 513) // put-style record: tag, key, ver, val
	torn := b[:28]
	got := DecodeLoose(torn)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("DecodeLoose(torn 28B) = %v, want [0 1 2]", got)
	}
	if out := DecodeLoose(""); len(out) != 0 {
		t.Fatalf("DecodeLoose(\"\") = %v, want empty", out)
	}
	if out := DecodeLoose(b[:3]); len(out) != 0 {
		t.Fatalf("DecodeLoose(3B) = %v, want empty (single padded word is the trailer)", out)
	}
}

// TestAppendScanThroughMachine: Append/Scan are real VM disk operations —
// records survive an fsync+crash, torn tails come back as raw bytes, and
// the scan terminates on the end-of-log Nil.
func TestAppendScanThroughMachine(t *testing.T) {
	m := vm.New(vm.Config{Seed: 1, CollectTrace: true})
	d := m.NewDisk("wal", vm.DiskFaults{TornBytes: 28})
	s := m.Site("test.simdisk")
	var scanned []string
	res := m.Run(func(th *vm.Thread) {
		Append(th, s, d, 0, 1, 1, 100)
		th.DiskFsync(s, d)
		Append(th, s, d, 0, 1, 2, 200) // volatile: torn to 28 bytes at crash
		Append(th, s, d, 0, 2, 1, 300) // volatile: dropped at crash
		th.DiskCrash(s, d)
		scanned = Scan(th, s, d)
	})
	if res.Outcome != vm.OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if len(scanned) != 2 {
		t.Fatalf("scanned %d records, want 2 (durable + torn)", len(scanned))
	}
	f, ok := Decode(scanned[0])
	if !ok || len(f) != 4 || f[3] != 100 {
		t.Fatalf("durable record decoded to %v (ok=%v)", f, ok)
	}
	if len(scanned[1]) != 28 {
		t.Fatalf("torn record is %d bytes, want 28", len(scanned[1]))
	}
	if _, ok := Decode(scanned[1]); ok {
		t.Fatal("Decode accepted the torn record")
	}
	whole := Encode(0, 1, 2, 200)
	if scanned[1] != whole[:28] {
		t.Fatal("torn record is not a byte prefix of the whole record")
	}
	reads := 0
	for _, e := range res.Trace.Events {
		if e.Kind == trace.EvDiskRead {
			reads++
		}
	}
	if reads != 3 { // two records + the Nil terminator
		t.Fatalf("scan issued %d DiskRead ops, want 3", reads)
	}
}
