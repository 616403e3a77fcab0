package debugdet

import (
	"io"

	"debugdet/internal/core"
	"debugdet/internal/flightrec"
	"debugdet/internal/record"
	"debugdet/internal/replay"
	"debugdet/scen"
	"debugdet/sim"
)

// Re-exported model identifiers, in the chronological order of the paper's
// Fig. 1.
const (
	Perfect   = record.Perfect
	Value     = record.Value
	Output    = record.Output
	Failure   = record.Failure
	DebugRCSE = record.DebugRCSE
)

// Core types, re-exported for the public API surface.
type (
	// Scenario describes a reproducible buggy program: its build
	// function, environment, failure specification and root causes.
	// Authors build them against debugdet/sim and debugdet/scen.
	Scenario = scen.Scenario
	// Params are scenario parameters.
	Params = scen.Params
	// RunView is a finished execution as predicates and analyses see it.
	RunView = scen.RunView
	// Registry catalogs scenarios by name; every Engine holds one.
	Registry = scen.Registry
	// Model identifies a determinism model.
	Model = record.Model
	// Recording is the persisted artifact of a recorded production run.
	Recording = record.Recording
	// ReplayResult is a finished replay.
	ReplayResult = replay.Result
	// ReplayOptions bounds replay inference.
	ReplayOptions = replay.Options
	// SeekSession is a replay positioned part-way through a recording by
	// Engine.Seek: a paused, inspectable machine plus seek provenance.
	SeekSession = replay.SeekSession
	// SegmentedResult is a finished segmented parallel replay
	// (Engine.ReplaySegmented).
	SegmentedResult = replay.SegmentedResult
	// DebugSession is an interactive time-travel session over a recording
	// (Engine.Debug): step / seek / back / inspect.
	DebugSession = replay.Debugger
	// DebugOptions configures a DebugSession.
	DebugOptions = replay.DebugOptions
	// SegmentStore is the segment-store contract Seek, ReplaySegmented and
	// Debug consume: a *Recording (the store that retains everything), a
	// flight recorder's spill directory (OpenSegmentStore) or any other
	// implementation.
	SegmentStore = flightrec.Store
	// StoreMeta is a segment store's run identity.
	StoreMeta = flightrec.Meta
	// SegmentInfo describes one checkpoint-delimited segment of a store.
	SegmentInfo = flightrec.SegmentInfo
	// FlightRecorderOptions configures Engine.RecordStreaming's bounded-
	// memory recording (Options.FlightRecorder): rotation interval, spill
	// directory and on-disk retention. Its RingSegments is ignored.
	FlightRecorderOptions = flightrec.Options
	// FlightRecording is a finished streaming recording: the reopened
	// segment store plus the recorder's accounting (peak memory, spill
	// and eviction counts, byte volumes).
	FlightRecording = flightrec.RecordResult
	// DiskSegmentStore is the SegmentStore implementation over a spill
	// directory, with the on-disk extras (Finalized, FeedCount,
	// FeedBytes) the generic interface does not carry.
	DiskSegmentStore = flightrec.DiskStore
	// Snapshot is one deterministic VM state checkpoint as persisted in a
	// recording (Recording.Checkpoints); see debugdet/sim for the full
	// snapshot vocabulary.
	Snapshot = sim.Snapshot
	// Evaluation is a complete record→replay→metrics result.
	Evaluation = core.Evaluation
	// Options parameterizes an evaluation.
	Options = core.Options
	// CauseExploration is the result of the §5 root-cause enumeration.
	CauseExploration = core.CauseExploration
)

// Models lists every determinism model.
func Models() []Model { return record.AllModels() }

// ParseModel resolves a model name ("perfect", "value", "output",
// "failure", "debug-rcse").
func ParseModel(name string) (Model, error) { return record.ParseModel(name) }

// SaveRecording writes a recording in the binary format.
func SaveRecording(w io.Writer, rec *Recording) error { return rec.Save(w) }

// LoadRecording reads a recording written by SaveRecording.
func LoadRecording(r io.Reader) (*Recording, error) { return record.Load(r) }
