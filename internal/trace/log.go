package trace

import (
	"fmt"
	"maps"
	"sort"
)

// SiteTable maps static program-location names to dense SiteIDs. ID 0 is
// reserved for NoSite. Registration order determines IDs, and workloads
// register sites deterministically, so tables are stable across runs.
type SiteTable struct {
	names []string
	ids   map[string]SiteID
}

// siteTablePresize is the initial capacity of a table's name list and ID
// map. Workloads register a few dozen sites; pre-sizing keeps Register off
// the grow path for every machine the search engine spins up.
const siteTablePresize = 32

// NewSiteTable returns an empty table with NoSite pre-registered.
func NewSiteTable() *SiteTable {
	t := &SiteTable{
		names: make([]string, 1, siteTablePresize),
		ids:   make(map[string]SiteID, siteTablePresize),
	}
	t.names[0] = "" // NoSite
	return t
}

// ResetSites returns t emptied to a new table's state, its storage kept, or
// a new table when t is nil. Nothing may read t any more: the machine that
// registered its sites is dead, and the logs that shared it are gone.
func ResetSites(t *SiteTable) *SiteTable {
	if t == nil {
		return NewSiteTable()
	}
	clear(t.names[1:])
	t.names = t.names[:1]
	clear(t.ids)
	return t
}

// Register returns the ID for name, assigning the next free ID on first use.
func (t *SiteTable) Register(name string) SiteID {
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := SiteID(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = id
	return id
}

// Lookup returns the ID for name and whether it is registered.
func (t *SiteTable) Lookup(name string) (SiteID, bool) {
	id, ok := t.ids[name]
	return id, ok
}

// Name returns the name for id, or "" if unknown.
func (t *SiteTable) Name(id SiteID) string {
	if int(id) < len(t.names) {
		return t.names[id]
	}
	return ""
}

// Len returns the number of registered sites including NoSite.
func (t *SiteTable) Len() int { return len(t.names) }

// Names returns a copy of the name list indexed by SiteID. Callers that
// only need the count should use Len, and per-ID access should use Name:
// both avoid the copy.
func (t *SiteTable) Names() []string {
	out := make([]string, len(t.names))
	copy(out, t.names)
	return out
}

// Clone returns an independent copy of the table.
func (t *SiteTable) Clone() *SiteTable {
	c := &SiteTable{
		names: make([]string, len(t.names)),
		ids:   make(map[string]SiteID, len(t.ids)),
	}
	copy(c.names, t.names)
	for k, v := range t.ids {
		c.ids[k] = v
	}
	return c
}

// Header carries the identity of the execution a log describes.
type Header struct {
	Scenario string           // scenario name
	Model    string           // determinism model the log was recorded under
	Seed     int64            // scheduler seed of the original execution
	Params   map[string]int64 // scenario parameters
}

// clone deep-copies the mutable params map.
func (h Header) clone() Header {
	h.Params = maps.Clone(h.Params)
	return h
}

// Log is a recorded projection of an execution: a header, the site table in
// effect, and an event sequence. Depending on the determinism model the
// events may be the full sequence or a sparse subset.
type Log struct {
	Header Header
	Sites  *SiteTable
	Events []Event
}

// NewLog returns an empty log with the given header and a fresh site table.
func NewLog(h Header) *Log {
	return &Log{Header: h, Sites: NewSiteTable()}
}

// Append adds an event to the log.
func (l *Log) Append(e Event) { l.Events = appendEvent(l.Events, e) }

// growDoubleFrom is the event count from which a full log doubles instead
// of following append's growth. Go grows large slices by about 1.25x, so a
// log that reaches n events that way allocates, clears and copies about 5n
// along the way; doubling costs about 2n. Below it, a log that outgrows
// the capacity its machine started it with (1024 events for an unforced
// run, or a rejected search candidate's array handed on) keeps append's
// tighter fit. Runs that know their length ahead (a forced replay, a
// segmented chunk) size their logs through Reserve instead.
const growDoubleFrom = 4096

// appendEvent is append for event logs that may grow long (see
// growDoubleFrom).
func appendEvent(events []Event, e Event) []Event {
	if len(events) == cap(events) && len(events) >= growDoubleFrom {
		events = Reserve(events, 1)
	}
	return append(events, e)
}

// Reserve returns events with room for at least n more, reallocating only
// when the spare capacity is short. A reallocation is exact-size — a run
// that reserves its whole length up front ends with len == cap — except
// that a log never grows by less than doubling, so repeated short
// reservations (a debugger stepping one event per Continue) stay linear.
func Reserve(events []Event, n int) []Event {
	if cap(events)-len(events) >= n {
		return events
	}
	grown := make([]Event, len(events), max(len(events)+n, 2*len(events)))
	copy(grown, events)
	return grown
}

// maxPresize caps Presize: 64 Ki events, 4 MiB of 64-byte events. It is
// far above every corpus run, and a run longer than the cap grows from it.
const maxPresize = 64 << 10

// Presize returns an empty event array with room for the n events a
// recording's header says its run had, for the first candidate of a replay
// that does not force the schedule (whose length Reserve knows). The
// header's count is not verified against the file (output, failure and
// value recordings do not keep every event), so a hostile or corrupt one
// must not size the array: n is clamped to limit, a run's step bound
// (0 = none), and to maxPresize. n == 0 gives nil, which the machine
// sizes as a production run.
func Presize(n, limit uint64) []Event {
	if limit > 0 {
		n = min(n, limit)
	}
	if n == 0 {
		return nil
	}
	return make([]Event, 0, min(n, maxPresize))
}

// Len returns the number of events.
func (l *Log) Len() int { return len(l.Events) }

// Clone returns a deep copy of the log (events are value types; the site
// table and header maps are copied).
func (l *Log) Clone() *Log {
	c := &Log{Header: l.Header.clone(), Sites: l.Sites.Clone()}
	c.Events = make([]Event, len(l.Events))
	copy(c.Events, l.Events)
	return c
}

// Schedule returns the sequence of thread IDs in event order: the total
// order of scheduling decisions. Replaying this sequence on the same
// program and inputs reproduces the execution exactly.
func (l *Log) Schedule() []ThreadID {
	out := make([]ThreadID, len(l.Events))
	for i, e := range l.Events {
		out[i] = e.TID
	}
	return out
}

// Outputs returns all output events grouped by stream object, in order.
func (l *Log) Outputs() map[ObjID][]Value {
	out := make(map[ObjID][]Value)
	for _, e := range l.Events {
		if e.Kind == EvOutput {
			out[e.Obj] = append(out[e.Obj], e.Val)
		}
	}
	return out
}

// Inputs returns all input events grouped by stream object, in order.
func (l *Log) Inputs() map[ObjID][]Value {
	in := make(map[ObjID][]Value)
	for _, e := range l.Events {
		if e.Kind == EvInput {
			in[e.Obj] = append(in[e.Obj], e.Val)
		}
	}
	return in
}

// Terminal returns the first terminal event (fail/crash/deadlock) and true,
// or a zero event and false if the execution completed normally.
func (l *Log) Terminal() (Event, bool) {
	for _, e := range l.Events {
		if e.Kind.IsTerminal() {
			return e, true
		}
	}
	return Event{}, false
}

// Duration returns the virtual time of the last event, i.e. the length of
// the execution in cycles. Empty logs have duration 0.
func (l *Log) Duration() uint64 {
	if len(l.Events) == 0 {
		return 0
	}
	return l.Events[len(l.Events)-1].Time
}

// FilterKind returns the events of the given kinds, preserving order.
func (l *Log) FilterKind(kinds ...EventKind) []Event {
	want := make(map[EventKind]bool, len(kinds))
	for _, k := range kinds {
		want[k] = true
	}
	var out []Event
	for _, e := range l.Events {
		if want[e.Kind] {
			out = append(out, e)
		}
	}
	return out
}

// ByThread splits the events per thread, preserving per-thread order.
func (l *Log) ByThread() map[ThreadID][]Event {
	out := make(map[ThreadID][]Event)
	for _, e := range l.Events {
		out[e.TID] = append(out[e.TID], e)
	}
	return out
}

// Threads returns the sorted set of thread IDs appearing in the log.
func (l *Log) Threads() []ThreadID {
	seen := make(map[ThreadID]bool)
	for _, e := range l.Events {
		seen[e.TID] = true
	}
	out := make([]ThreadID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SiteName is a convenience that resolves a site ID against the log's table.
func (l *Log) SiteName(id SiteID) string {
	if l.Sites == nil {
		return ""
	}
	return l.Sites.Name(id)
}

// Summary returns a short human-readable description of the log.
func (l *Log) Summary() string {
	term := "ok"
	if e, bad := l.Terminal(); bad {
		term = fmt.Sprintf("%s(%s)", e.Kind, e.Val.AsString())
	}
	return fmt.Sprintf("%s/%s seed=%d events=%d dur=%d %s",
		l.Header.Scenario, l.Header.Model, l.Header.Seed, len(l.Events), l.Duration(), term)
}

// OutputsEqual reports whether two logs produced identical per-stream
// output sequences.
func OutputsEqual(a, b *Log) bool {
	oa, ob := a.Outputs(), b.Outputs()
	if len(oa) != len(ob) {
		return false
	}
	for obj, va := range oa {
		vb, ok := ob[obj]
		if !ok || len(va) != len(vb) {
			return false
		}
		for i := range va {
			if !va[i].Equal(vb[i]) {
				return false
			}
		}
	}
	return true
}

// EventsEqual reports whether two logs contain identical event sequences,
// ignoring the Time field when ignoreTime is set (recording overhead
// perturbs virtual time without changing the logical execution).
func EventsEqual(a, b *Log, ignoreTime bool) bool {
	if len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ignoreTime {
			ea.Time, eb.Time = 0, 0
		}
		if ea.Seq != eb.Seq || ea.TID != eb.TID || ea.Kind != eb.Kind ||
			ea.Site != eb.Site || ea.Obj != eb.Obj || ea.Taint != eb.Taint ||
			!ea.Val.Equal(eb.Val) || ea.Time != eb.Time {
			return false
		}
	}
	return true
}
