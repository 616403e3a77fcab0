// Package plane classifies instrumentation sites into control-plane and
// data-plane code, the heuristic behind the code-based selection of §3.1.1
// and the approach of the HotDep'10 study the paper cites as [3]:
// control-plane code executes at substantially lower data rates than
// data-plane code, so low-rate sites are deemed control plane. The
// classifier combines two signals obtained from a profiling run:
//
//   - data rate: payload bytes observed per site, normalized by execution
//     length, and
//   - taint: the provenance of the values flowing through the site, as
//     propagated by the VM (bulk-input-derived values mark data-plane
//     flow).
//
// Nothing in the library uses the classification. Measured as RCSE's
// stream set, it needs more attempts than the scenarios' declared
// control streams (EXPERIMENTS.md "The plane verdict"), so RCSE records
// the declared streams (record.RCSEPolicy). The package is kept only for
// the benchmark's plane.classify_us_per_event probe, and goes with
// internal/race and internal/invariant once the benchmark stops calling
// it (ROADMAP item 2).
package plane

import (
	"fmt"
	"sort"

	"debugdet/internal/trace"
)

// Plane is a site classification.
type Plane uint8

// Plane values.
const (
	Unknown Plane = iota
	Control
	Data
)

// String returns the lower-case plane name.
func (p Plane) String() string {
	switch p {
	case Control:
		return "control"
	case Data:
		return "data"
	}
	return "unknown"
}

// SiteProfile aggregates the observable behaviour of one site over a
// profiling run.
type SiteProfile struct {
	Site        trace.SiteID
	Name        string
	Events      uint64  // events observed at the site
	PayloadByte uint64  // total payload bytes through the site
	DataTainted uint64  // events whose value carried data taint
	CtrlTainted uint64  // events whose value carried control taint
	Rate        float64 // payload bytes per kilocycle of execution
}

// String renders the profile compactly.
func (p SiteProfile) String() string {
	return fmt.Sprintf("%s: ev=%d bytes=%d rate=%.3f dataTaint=%d ctrlTaint=%d",
		p.Name, p.Events, p.PayloadByte, p.Rate, p.DataTainted, p.CtrlTainted)
}

// Options configures classification.
type Options struct {
	// RateFraction: a site whose byte rate exceeds this fraction of the
	// maximum observed site rate is data-plane by the rate signal.
	// Defaults to 0.05.
	RateFraction float64
	// TaintMajority: a site where more than this fraction of events carry
	// data taint is data-plane by the taint signal. Defaults to 0.5.
	TaintMajority float64
	// MinEvents: sites with fewer events than this are classified by
	// taint only (their rate estimate is too noisy). Defaults to 3.
	MinEvents uint64
}

func (o Options) withDefaults() Options {
	if o.RateFraction == 0 {
		o.RateFraction = 0.05
	}
	if o.TaintMajority == 0 {
		o.TaintMajority = 0.5
	}
	if o.MinEvents == 0 {
		o.MinEvents = 3
	}
	return o
}

// Classification is the result of classifying a profiling run.
type Classification struct {
	Planes   map[trace.SiteID]Plane
	Profiles []SiteProfile
	MaxRate  float64
}

// Profile aggregates per-site statistics from a trace. Only events that
// move payloads (stores, sends, recvs, inputs, outputs, observes) are
// profiled; pure synchronization sites still appear with zero bytes.
func Profile(l *trace.Log) []SiteProfile {
	agg := make(map[trace.SiteID]*SiteProfile)
	for _, e := range l.Events {
		if e.Site == trace.NoSite {
			continue
		}
		p := agg[e.Site]
		if p == nil {
			p = &SiteProfile{Site: e.Site, Name: l.SiteName(e.Site)}
			agg[e.Site] = p
		}
		p.Events++
		//lint:exhaustive-default only payload-bearing kinds contribute bytes to the site profile
		switch e.Kind {
		case trace.EvStore, trace.EvSend, trace.EvRecv, trace.EvInput, trace.EvOutput, trace.EvLoad, trace.EvObserve,
			trace.EvDiskWrite, trace.EvDiskRead:
			p.PayloadByte += uint64(e.Val.Size())
		}
		if e.Taint&trace.TaintData != 0 {
			p.DataTainted++
		}
		if e.Taint&trace.TaintControl != 0 {
			p.CtrlTainted++
		}
	}
	dur := l.Duration()
	if dur == 0 {
		dur = 1
	}
	out := make([]SiteProfile, 0, len(agg))
	for _, p := range agg {
		p.Rate = float64(p.PayloadByte) / float64(dur) * 1000
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Classify applies the rate and taint heuristics to site profiles.
func Classify(profiles []SiteProfile, opts Options) *Classification {
	opts = opts.withDefaults()
	c := &Classification{Planes: make(map[trace.SiteID]Plane), Profiles: profiles}
	for _, p := range profiles {
		if p.Rate > c.MaxRate {
			c.MaxRate = p.Rate
		}
	}
	for _, p := range profiles {
		c.Planes[p.Site] = classifyOne(p, c.MaxRate, opts)
	}
	return c
}

func classifyOne(p SiteProfile, maxRate float64, opts Options) Plane {
	var dataFrac, ctrlFrac float64
	if p.Events > 0 {
		dataFrac = float64(p.DataTainted) / float64(p.Events)
		ctrlFrac = float64(p.CtrlTainted) / float64(p.Events)
	}
	// Purely control-tainted traffic stays control plane even when bursty
	// (bulk metadata transfer during migrations). Sites that also move
	// data-tainted values fall through to the rate signal: a commit path
	// mixes routing metadata with payloads, and its byte rate is what
	// makes it data plane.
	if ctrlFrac > opts.TaintMajority && dataFrac <= opts.TaintMajority {
		return Control
	}
	if dataFrac > opts.TaintMajority && ctrlFrac <= opts.TaintMajority {
		return Data
	}
	if p.Events >= opts.MinEvents && maxRate > 0 &&
		p.Rate >= opts.RateFraction*maxRate {
		return Data
	}
	return Control
}

// ClassifyTrace is the convenience composition Profile + Classify.
func ClassifyTrace(l *trace.Log, opts Options) *Classification {
	return Classify(Profile(l), opts)
}
