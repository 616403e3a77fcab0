package trace

import (
	"encoding/json"
	"io"
)

// jsonEvent is the JSON wire form of an Event, with site names resolved and
// values rendered in a self-describing way.
type jsonEvent struct {
	Seq   uint64 `json:"seq"`
	Time  uint64 `json:"time"`
	TID   int32  `json:"tid"`
	Kind  string `json:"kind"`
	Site  string `json:"site,omitempty"`
	Obj   uint64 `json:"obj,omitempty"`
	Val   any    `json:"val,omitempty"`
	Blob  bool   `json:"blob,omitempty"` // val is a VBytes payload, not a VString
	Taint string `json:"taint,omitempty"`
}

type jsonLog struct {
	Scenario string           `json:"scenario"`
	Model    string           `json:"model"`
	Seed     int64            `json:"seed"`
	Params   map[string]int64 `json:"params,omitempty"`
	Events   []jsonEvent      `json:"events"`
}

// WriteJSON writes a human-readable JSON rendering of the log. It is an
// export format only; the binary codec is the canonical round-trippable one.
func WriteJSON(w io.Writer, l *Log) error {
	jl := jsonLog{
		Scenario: l.Header.Scenario,
		Model:    l.Header.Model,
		Seed:     l.Header.Seed,
		Params:   l.Header.Params,
		Events:   make([]jsonEvent, 0, len(l.Events)),
	}
	for _, e := range l.Events {
		je := jsonEvent{
			Seq:  e.Seq,
			Time: e.Time,
			TID:  int32(e.TID),
			Kind: e.Kind.String(),
			Obj:  uint64(e.Obj),
		}
		if e.Site != NoSite {
			je.Site = l.SiteName(e.Site)
		}
		switch e.Val.Kind {
		case VNil:
		case VInt:
			je.Val = e.Val.Int
		case VBool:
			je.Val = e.Val.Int != 0
		case VString:
			je.Val = e.Val.Str
		case VBytes:
			je.Val, je.Blob = e.Val.Str, true
		}
		if e.Taint != TaintNone {
			je.Taint = e.Taint.String()
		}
		jl.Events = append(jl.Events, je)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jl)
}
