package trace

import (
	"fmt"
	"strconv"
)

// ValueKind enumerates the dynamic types a VM value can take. The VM is
// deliberately first-order: integers, booleans, strings and byte blobs are
// enough to express the workloads while keeping logs compact and
// comparisons deterministic.
type ValueKind uint8

// Value kinds.
const (
	VNil ValueKind = iota
	VInt
	VBool
	VString
	VBytes
)

// Value is a first-order VM value: a tagged union over nil, int64, bool,
// string and byte blob. The zero Value is nil. A blob's bytes live in Str
// like a string's, immutable once built; Kind alone tells the two apart,
// so a blob and a string with equal bytes are not Equal.
type Value struct {
	Kind ValueKind
	Int  int64  // VInt (and VBool: 0/1)
	Str  string // VString and VBytes
}

// Nil is the nil value.
var Nil = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{Kind: VInt, Int: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	i := int64(0)
	if v {
		i = 1
	}
	return Value{Kind: VBool, Int: i}
}

// Str returns a string value. (Not String: that is the fmt.Stringer method
// on Value.)
func Str(s string) Value { return Value{Kind: VString, Str: s} }

// Blob returns a byte-blob value holding the bytes of s.
func Blob(s string) Value { return Value{Kind: VBytes, Str: s} }

// AsInt returns the integer payload, coercing booleans; other kinds yield 0.
func (v Value) AsInt() int64 {
	if v.Kind == VInt || v.Kind == VBool {
		return v.Int
	}
	return 0
}

// AsBool returns the boolean payload; non-bool kinds are truthy if nonzero
// or nonempty.
func (v Value) AsBool() bool {
	//lint:exhaustive-default VNil is falsy: the fallthrough return false is its deliberate truthiness
	switch v.Kind {
	case VBool, VInt:
		return v.Int != 0
	case VString, VBytes:
		return v.Str != ""
	}
	return false
}

// AsString returns the string or blob payload; other kinds are formatted.
func (v Value) AsString() string {
	//lint:exhaustive-default VNil renders as the empty string via the fallthrough
	switch v.Kind {
	case VString, VBytes:
		return v.Str
	case VInt:
		return strconv.FormatInt(v.Int, 10)
	case VBool:
		if v.Int != 0 {
			return "true"
		}
		return "false"
	}
	return ""
}

// IsNil reports whether the value is the nil value.
func (v Value) IsNil() bool { return v.Kind == VNil }

// Size returns the payload size in bytes, used by the data-rate profiler
// and by recorders to account log volume.
func (v Value) Size() int {
	switch v.Kind {
	case VNil:
		return 0
	case VInt, VBool:
		return 8
	case VString, VBytes:
		return len(v.Str)
	}
	return 0
}

// Equal reports deep equality of two values. Integer and boolean values of
// equal numeric payload compare equal only within the same kind.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case VNil:
		return true
	case VInt, VBool:
		return v.Int == o.Int
	case VString, VBytes:
		return v.Str == o.Str
	}
	return false
}

// String implements fmt.Stringer.
func (v Value) String() string {
	switch v.Kind {
	case VNil:
		return "nil"
	case VInt:
		return strconv.FormatInt(v.Int, 10)
	case VBool:
		if v.Int != 0 {
			return "true"
		}
		return "false"
	case VString:
		return strconv.Quote(v.Str)
	case VBytes:
		if len(v.Str) > 16 {
			return fmt.Sprintf("bytes[%d]", len(v.Str))
		}
		return strconv.Quote(v.Str)
	}
	return "?"
}
