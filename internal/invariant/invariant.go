// Package invariant implements dynamic invariant inference: the training
// step of the paper's data-based selection heuristic (§3.1.2).
//
// Training executions are observed and likely invariants are inferred over
// the program's probe points (the Daikon approach the paper cites as [7]):
// constancy, small value sets, integer ranges, non-emptiness. Set.Check
// tells whether a probed value violates them. The RCSE recorder does not
// arm an invariant trigger: a violation comes after the root-cause draw it
// would have to record (DESIGN.md §2), so no trigger changed a replay.
package invariant

import (
	"fmt"
	"sort"
	"strings"

	"debugdet/internal/trace"
)

// Key identifies a probe point: a static site plus a probe ID within it.
type Key struct {
	Site  trace.SiteID
	Probe trace.ObjID
}

// Invariant is a predicate over values at one probe point.
type Invariant interface {
	// Holds reports whether the value satisfies the invariant.
	Holds(v trace.Value) bool
	// String renders the invariant in Daikon-like notation.
	String() string
}

// constInv: the probe always sees one value.
type constInv struct{ v trace.Value }

func (i constInv) Holds(v trace.Value) bool { return v.Equal(i.v) }
func (i constInv) String() string           { return fmt.Sprintf("x == %s", i.v) }

// oneOfInv: the probe sees a small set of values.
type oneOfInv struct{ vs []trace.Value }

func (i oneOfInv) Holds(v trace.Value) bool {
	for _, w := range i.vs {
		if v.Equal(w) {
			return true
		}
	}
	return false
}

func (i oneOfInv) String() string {
	parts := make([]string, len(i.vs))
	for j, v := range i.vs {
		parts[j] = v.String()
	}
	return "x in {" + strings.Join(parts, ", ") + "}"
}

// rangeInv: integer probes stay within the observed range.
type rangeInv struct{ min, max int64 }

func (i rangeInv) Holds(v trace.Value) bool {
	if v.Kind != trace.VInt && v.Kind != trace.VBool {
		return false
	}
	n := v.AsInt()
	return n >= i.min && n <= i.max
}

func (i rangeInv) String() string { return fmt.Sprintf("%d <= x <= %d", i.min, i.max) }

// kindInv: the probe's value kind never changes.
type kindInv struct{ kind trace.ValueKind }

func (i kindInv) Holds(v trace.Value) bool { return v.Kind == i.kind }
func (i kindInv) String() string           { return fmt.Sprintf("kind(x) == %d", i.kind) }

// observations accumulates training samples for one probe point.
type observations struct {
	count      uint64
	kinds      map[trace.ValueKind]bool
	distinct   []trace.Value // capped; nil-ed out once exceeded
	overflow   bool
	min, max   int64
	anyInt     bool
	nonNumeric bool
}

const maxDistinct = 8

func (o *observations) add(v trace.Value) {
	o.count++
	if o.kinds == nil {
		o.kinds = make(map[trace.ValueKind]bool)
	}
	o.kinds[v.Kind] = true
	if !o.overflow {
		found := false
		for _, w := range o.distinct {
			if w.Equal(v) {
				found = true
				break
			}
		}
		if !found {
			if len(o.distinct) >= maxDistinct {
				o.overflow = true
				o.distinct = nil
			} else {
				o.distinct = append(o.distinct, v)
			}
		}
	}
	if v.Kind == trace.VInt || v.Kind == trace.VBool {
		n := v.AsInt()
		if !o.anyInt {
			o.min, o.max = n, n
			o.anyInt = true
		} else {
			if n < o.min {
				o.min = n
			}
			if n > o.max {
				o.max = n
			}
		}
	} else {
		o.nonNumeric = true
	}
}

// Inferencer collects training samples and infers invariants.
type Inferencer struct {
	obs map[Key]*observations
}

// NewInferencer returns an empty inferencer.
func NewInferencer() *Inferencer {
	return &Inferencer{obs: make(map[Key]*observations)}
}

// Observe adds one training sample.
func (inf *Inferencer) Observe(k Key, v trace.Value) {
	o := inf.obs[k]
	if o == nil {
		o = &observations{}
		inf.obs[k] = o
	}
	o.add(v)
}

// AddTrace consumes every probe event (EvObserve) in a training trace.
func (inf *Inferencer) AddTrace(l *trace.Log) {
	for _, e := range l.Events {
		if e.Kind == trace.EvObserve {
			inf.Observe(Key{Site: e.Site, Probe: e.Obj}, e.Val)
		}
	}
}

// Infer produces the strongest supported invariant per probe point. The
// discipline mirrors Daikon's: constancy beats set membership beats range;
// a probe with too few samples (fewer than minSamples) yields nothing, so
// barely-exercised code does not produce spurious alarms.
func (inf *Inferencer) Infer() *Set {
	const minSamples = 2
	s := &Set{inv: make(map[Key][]Invariant)}
	for k, o := range inf.obs {
		if o.count < minSamples {
			continue
		}
		var out []Invariant
		if len(o.kinds) == 1 {
			for kind := range o.kinds {
				out = append(out, kindInv{kind: kind})
			}
		}
		switch {
		case !o.overflow && len(o.distinct) == 1:
			out = append(out, constInv{v: o.distinct[0]})
		case !o.overflow && o.count >= uint64(2*len(o.distinct)):
			vs := make([]trace.Value, len(o.distinct))
			copy(vs, o.distinct)
			out = append(out, oneOfInv{vs: vs})
		case o.anyInt && !o.nonNumeric:
			// Ranges are only sound when every training sample was
			// numeric; mixed-kind probes would flag their own
			// non-numeric training values.
			out = append(out, rangeInv{min: o.min, max: o.max})
		}
		if len(out) > 0 {
			s.inv[k] = out
		}
	}
	return s
}

// Set is a collection of inferred invariants keyed by probe point.
type Set struct {
	inv map[Key][]Invariant
}

// Len returns the number of probe points with invariants.
func (s *Set) Len() int { return len(s.inv) }

// At returns the invariants for a probe point.
func (s *Set) At(k Key) []Invariant { return s.inv[k] }

// Check returns the invariants at k that v violates (nil when all hold or
// none are known).
func (s *Set) Check(k Key, v trace.Value) []Invariant {
	var bad []Invariant
	for _, in := range s.inv[k] {
		if !in.Holds(v) {
			bad = append(bad, in)
		}
	}
	return bad
}

// Describe renders the invariant set for documentation and debugging,
// resolving site names against the given table.
func (s *Set) Describe(sites *trace.SiteTable) string {
	keys := make([]Key, 0, len(s.inv))
	for k := range s.inv {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Site != keys[j].Site {
			return keys[i].Site < keys[j].Site
		}
		return keys[i].Probe < keys[j].Probe
	})
	var b strings.Builder
	for _, k := range keys {
		name := ""
		if sites != nil {
			name = sites.Name(k.Site)
		}
		for _, in := range s.inv[k] {
			fmt.Fprintf(&b, "%s/probe%d: %s\n", name, k.Probe, in)
		}
	}
	return b.String()
}
