package vm

import (
	"math/rand"

	"debugdet/internal/trace"
)

// Observer receives every event the machine applies, in order. Observers
// implement recorders, online detectors and checkpoint writers. The
// returned value is the number of virtual cycles the observer's work costs
// at runtime (recording cost); the machine adds it to the clock and
// accounts it separately so overhead ratios can be computed. Pure analysis
// observers (oracles that a production system would not run) return 0.
//
// The *trace.Event points into a buffer the machine reuses for the next
// event: observers must read or copy it during OnEvent, never retain the
// pointer.
type Observer interface {
	OnEvent(e *trace.Event) uint64
}

// FinishObserver is an optional extension of Observer for observers that
// buffer state across events (segment recorders, streaming writers):
// OnFinish fires exactly once, from End (which Machine.Finish calls),
// after the execution has stopped and before any Result is built. The
// machine is quiescent during the call, so the observer may inspect it
// (StreamNames, Seq) and flush whatever it buffered.
type FinishObserver interface {
	Observer
	OnFinish(outcome Outcome)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(e *trace.Event) uint64

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(e *trace.Event) uint64 { return f(e) }

// InputSource supplies the program's environment: the value returned by the
// i-th Input operation on a stream. Implementations must be deterministic
// functions of (stream, index) so that executions are reproducible from the
// seed alone.
type InputSource interface {
	Next(stream string, index int) trace.Value
}

// InputSourceFunc adapts a function to the InputSource interface.
type InputSourceFunc func(stream string, index int) trace.Value

// Next implements InputSource.
func (f InputSourceFunc) Next(stream string, index int) trace.Value { return f(stream, index) }

// ZeroInputs is an input source that returns zero for every request.
var ZeroInputs InputSource = InputSourceFunc(func(string, int) trace.Value { return trace.Int(0) })

// SeededInputs returns a deterministic pseudo-random input source: the
// value for (stream, index) is derived from hashing the stream name, the
// index and the seed, and is uniform in [0, limit). It is stateless, so the
// same (stream, index) always yields the same value regardless of
// consumption order.
func SeededInputs(seed int64, limit int64) InputSource {
	return InputSourceFunc(func(stream string, index int) trace.Value {
		return trace.Int(HashValue(seed, stream, index) % limit)
	})
}

// HashValue mixes (seed, stream, index) into a non-negative int64 using an
// FNV-1a/splitmix-style construction. It is the deterministic randomness
// primitive for input sources, and for workloads that need reproducible
// pseudo-random decisions outside the input mechanism (for example, sizing
// a payload from a request index).
func HashValue(seed int64, stream string, index int) int64 {
	h := uint64(1469598103934665603) ^ uint64(seed)*1099511628211
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	h = (h ^ uint64(index)) * 1099511628211
	// splitmix64 finalizer for avalanche.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	v := int64(h &^ (1 << 63))
	return v
}

// MapInputs is an input source backed by explicit per-stream value
// sequences, falling back to a base source when a stream runs out. It is
// how the inference engine forces candidate inputs during execution
// synthesis.
type MapInputs struct {
	Values map[string][]trace.Value
	Base   InputSource
}

// Next implements InputSource.
func (m *MapInputs) Next(stream string, index int) trace.Value {
	if vs, ok := m.Values[stream]; ok && index < len(vs) {
		return vs[index]
	}
	if m.Base != nil {
		return m.Base.Next(stream, index)
	}
	return trace.Int(0)
}

// newRand returns a rand.Rand seeded deterministically; all VM-internal
// randomness goes through this so runs are reproducible.
func newRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// reseed returns rng reseeded, or newRand(seed) when rng is nil. Seeding a
// generator resets all of its state, so the two draw the same stream.
func reseed(rng *rand.Rand, seed int64) *rand.Rand {
	if rng == nil {
		return newRand(seed)
	}
	rng.Seed(seed)
	return rng
}
