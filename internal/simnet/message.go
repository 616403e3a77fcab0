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
	"strings"

	"debugdet/internal/trace"
	"debugdet/internal/wire"
)

// Message is a structured network message. Fields are positional by
// convention of each protocol (see the hyperkv package for an example).
type Message struct {
	Kind string   // message type tag
	From string   // sender node name
	Args []string // string arguments
	Nums []int64  // numeric arguments
	Blob string   // bulk payload
}

// String renders the message for diagnostics.
func (m Message) String() string {
	return fmt.Sprintf("%s from=%s args=%v nums=%v blob=%dB",
		m.Kind, m.From, m.Args, m.Nums, len(m.Blob))
}

// Encode serializes the message into a VM value (a byte blob). The
// encoding is length-prefixed and deterministic, and built once at its
// final size.
func (m Message) Encode() trace.Value {
	n := strLen(m.Kind) + strLen(m.From) + wire.UvarintLen(uint64(len(m.Args)))
	for _, a := range m.Args {
		n += strLen(a)
	}
	n += wire.UvarintLen(uint64(len(m.Nums)))
	for _, v := range m.Nums {
		n += wire.VarintLen(v)
	}
	n += wire.UvarintLen(uint64(len(m.Blob))) + len(m.Blob)
	var b strings.Builder
	b.Grow(n)
	writeString(&b, m.Kind)
	writeString(&b, m.From)
	writeUvarint(&b, uint64(len(m.Args)))
	for _, a := range m.Args {
		writeString(&b, a)
	}
	writeUvarint(&b, uint64(len(m.Nums)))
	for _, v := range m.Nums {
		var w [binary.MaxVarintLen64]byte
		b.Write(binary.AppendVarint(w[:0], v))
	}
	writeUvarint(&b, uint64(len(m.Blob)))
	b.WriteString(m.Blob)
	return trace.Blob(b.String())
}

// DecodeMessage parses a value produced by Encode. It returns an error for
// malformed input rather than panicking, since messages may be synthesized
// by the inference engine. Kind, From, Args and Blob are substrings of
// the value's payload; only the Args and Nums slices are allocated.
func DecodeMessage(v trace.Value) (Message, error) {
	if v.Kind != trace.VBytes {
		return Message{}, fmt.Errorf("simnet: message value has kind %d, want bytes", v.Kind)
	}
	b := v.Str
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
	m.Blob = b[:nBlob]
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

// strLen is the bytes writeString writes for s.
func strLen(s string) int { return wire.UvarintLen(uint64(len(s))) + len(s) }

func writeString(b *strings.Builder, s string) {
	writeUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

func writeUvarint(b *strings.Builder, v uint64) {
	var w [binary.MaxVarintLen64]byte
	b.Write(binary.AppendUvarint(w[:0], v))
}

// takeUvarint is binary.Uvarint on a string: a uvarint of at most ten
// bytes whose value fits in 64 bits.
func takeUvarint(b string) (uint64, string, error) {
	var v uint64
	for i := 0; i < len(b) && i < binary.MaxVarintLen64; i++ {
		c := b[i]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				break
			}
			return v | uint64(c)<<(7*i), b[i+1:], nil
		}
		v |= uint64(c&0x7f) << (7 * i)
	}
	return 0, "", fmt.Errorf("bad uvarint")
}

func takeVarint(b string) (int64, string, error) {
	u, rest, err := takeUvarint(b)
	if err != nil {
		return 0, "", fmt.Errorf("bad varint")
	}
	return int64(u>>1) ^ -int64(u&1), rest, nil
}

func takeString(b string) (string, string, error) {
	n, rest, err := takeUvarint(b)
	if err != nil {
		return "", "", err
	}
	if uint64(len(rest)) < n {
		return "", "", fmt.Errorf("string truncated")
	}
	return rest[:n], rest[n:], nil
}
