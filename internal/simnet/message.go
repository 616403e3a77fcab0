// Package simnet provides a virtual message-passing network on top of the
// deterministic VM: named nodes with inboxes, point-to-point links with
// configurable latency and loss, and a structured message codec.
//
// Delivery delay and message loss are environment non-determinism: pump
// threads draw them from VM input streams (tainted TaintEnv), so they are
// part of the recorded execution under high-fidelity models and part of
// the search space for inference-based models. That is exactly the
// mechanism behind the paper's §2 message-drop example, where an
// over-relaxed replayer can attribute a buffer race to network congestion:
// both explanations live in the same input space.
package simnet

import (
	"encoding/binary"
	"fmt"

	"debugdet/internal/trace"
)

// Message is a structured network message. Fields are positional by
// convention of each protocol (see the hyperkv package for an example).
type Message struct {
	Kind string   // message type tag
	From string   // sender node name
	Args []string // string arguments
	Nums []int64  // numeric arguments
	Blob []byte   // bulk payload
}

// String renders the message for diagnostics.
func (m Message) String() string {
	return fmt.Sprintf("%s from=%s args=%v nums=%v blob=%dB",
		m.Kind, m.From, m.Args, m.Nums, len(m.Blob))
}

// Encode serializes the message into a VM value (a byte blob). The
// encoding is length-prefixed and deterministic.
func (m Message) Encode() trace.Value {
	var b []byte
	b = appendString(b, m.Kind)
	b = appendString(b, m.From)
	b = binary.AppendUvarint(b, uint64(len(m.Args)))
	for _, a := range m.Args {
		b = appendString(b, a)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Nums)))
	for _, n := range m.Nums {
		b = binary.AppendVarint(b, n)
	}
	b = binary.AppendUvarint(b, uint64(len(m.Blob)))
	b = append(b, m.Blob...)
	return trace.Bytes_(b)
}

// DecodeMessage parses a value produced by Encode. It returns an error for
// malformed input rather than panicking, since messages may be synthesized
// by the inference engine.
func DecodeMessage(v trace.Value) (Message, error) {
	if v.Kind != trace.VBytes {
		return Message{}, fmt.Errorf("simnet: message value has kind %d, want bytes", v.Kind)
	}
	b := v.Bytes
	var m Message
	var err error
	if m.Kind, b, err = takeString(b); err != nil {
		return Message{}, fmt.Errorf("simnet: kind: %w", err)
	}
	if m.From, b, err = takeString(b); err != nil {
		return Message{}, fmt.Errorf("simnet: from: %w", err)
	}
	nArgs, b, err := takeUvarint(b)
	if err != nil {
		return Message{}, fmt.Errorf("simnet: argc: %w", err)
	}
	// Every arg and num takes at least one byte, so a count is capped by the
	// bytes left: a synthesized hostile count reserves nothing.
	if n := min(nArgs, uint64(len(b))); n > 0 {
		m.Args = make([]string, 0, n)
	}
	for i := uint64(0); i < nArgs; i++ {
		var a string
		if a, b, err = takeString(b); err != nil {
			return Message{}, fmt.Errorf("simnet: arg %d: %w", i, err)
		}
		m.Args = append(m.Args, a)
	}
	nNums, b, err := takeUvarint(b)
	if err != nil {
		return Message{}, fmt.Errorf("simnet: numc: %w", err)
	}
	if n := min(nNums, uint64(len(b))); n > 0 {
		m.Nums = make([]int64, 0, n)
	}
	for i := uint64(0); i < nNums; i++ {
		var n int64
		if n, b, err = takeVarint(b); err != nil {
			return Message{}, fmt.Errorf("simnet: num %d: %w", i, err)
		}
		m.Nums = append(m.Nums, n)
	}
	nBlob, b, err := takeUvarint(b)
	if err != nil {
		return Message{}, fmt.Errorf("simnet: blob size: %w", err)
	}
	if uint64(len(b)) < nBlob {
		return Message{}, fmt.Errorf("simnet: blob truncated: have %d want %d", len(b), nBlob)
	}
	if nBlob > 0 {
		m.Blob = b[:nBlob]
	}
	return m, nil
}

// MustDecode decodes a message the caller knows is well-formed (one it
// received from a link its own protocol feeds); malformed input panics.
func MustDecode(v trace.Value) Message {
	m, err := DecodeMessage(v)
	if err != nil {
		panic(err)
	}
	return m
}

// Arg returns Args[i] or "" when absent.
func (m Message) Arg(i int) string {
	if i < len(m.Args) {
		return m.Args[i]
	}
	return ""
}

// Num returns Nums[i] or 0 when absent.
func (m Message) Num(i int) int64 {
	if i < len(m.Nums) {
		return m.Nums[i]
	}
	return 0
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad uvarint")
	}
	return v, b[n:], nil
}

func takeVarint(b []byte) (int64, []byte, error) {
	v, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("bad varint")
	}
	return v, b[n:], nil
}

func takeString(b []byte) (string, []byte, error) {
	n, rest, err := takeUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(rest)) < n {
		return "", nil, fmt.Errorf("string truncated")
	}
	return string(rest[:n]), rest[n:], nil
}
