// Package flightrec is the flight recorder: always-on, bounded-memory
// deterministic recording with a disk-backed segment store.
//
// The paper's premise is that debug-deterministic recording must be cheap
// enough to leave on in production. The stock recorder satisfies the
// runtime half of that bargain (its log volume and overhead are small) but
// not the memory half: it accumulates one unbounded in-memory Recording.
// The flight recorder closes the gap by streaming. Checkpoints — the
// periodic VM snapshots of package checkpoint — delimit the event stream
// into segments, and each segment is encoded to a compact .ddseg file in
// the spill directory as it seals. Recording therefore runs indefinitely
// holding one segment in memory, the building one, and the spill directory
// always holds the most recent tail of the execution, time-travel-ready.
//
// On-disk layout of a spill directory:
//
//   - seg-NNNNNN.ddseg — one sealed segment: its boundary snapshot plus
//     the delta/varint-encoded events of [From, To).
//   - feeds.ddfl — the append-only feed log: one compact entry per event
//     of the whole run (thread, kind, and the operation outcome needed by
//     vm.Restore). It is never truncated, because restoring any snapshot
//     needs the complete operation-outcome prefix; it is the seekability
//     floor that keeps retained snapshots restorable after older event
//     segments are evicted.
//   - manifest.ddmf — run identity (scenario, model, seed, params,
//     streams), terminal condition, and the segment table. Rewritten
//     atomically (write-temp-then-rename) on every spill and at finish,
//     after the feed log is flushed, so a process that dies mid-run
//     leaves a directory that opens as the run up to its last seal.
//
// Retention caps how many sealed segments stay on disk; older .ddseg
// files are deleted as newer ones spill. The feed log still grows
// linearly with the run — at a few bytes per event, a deliberate trade:
// memory is the bounded resource while recording, disk is cheap, and
// without the full feed prefix no checkpoint would be restorable.
//
// The Store interface is the replay-side contract: replay.Seek,
// replay.Segmented and replay.NewDebugger consume it. A *record.Recording
// implements it for an in-memory recording — the store that retains
// everything — and Open for a spill directory, so every replay entry point
// works identically over both.
package flightrec
