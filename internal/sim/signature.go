package sim

// signature.go is the state snapshot/signature hook used by the model
// checker's reduction layer. A configuration reached by replaying a
// schedule prefix is identified — up to continuation behaviour — by the
// per-process response histories (programs are deterministic functions
// of their responses) plus the state of every shared object. Objects
// expose their half of that identity through StateSigner: an injective
// binary encoding appended to a caller-owned buffer, so building a
// signature allocates nothing once the buffer has grown to size. The
// fallback for objects that only implement the model checker's
// StateKey() string contract goes through that string instead.
//
// Encodings are tag-prefixed and length-delimited so that distinct
// states can never concatenate to equal bytes: "10" the string and 10
// the int get different tags, and string payloads carry their length.

import "fmt"

// StateSigner is an optional interface for shared objects: an object
// that implements it can append an injective binary encoding of its
// current state to a caller-owned buffer. Two states with equal
// encodings must be equal (behave identically under every future
// operation sequence) — the same contract as the model checker's
// StateKey, but allocation-free on the replay hot path. Implementations
// should build the encoding from AppendValueSig and AppendIntSig so the
// cross-object framing stays unambiguous.
type StateSigner interface {
	AppendStateSig(dst []byte) []byte
}

// Signature tag bytes. Every encoded value starts with one of these, so
// values of different dynamic types can never alias.
const (
	sigNil    byte = 0x01
	sigFalse  byte = 0x02
	sigTrue   byte = 0x03
	sigInt    byte = 0x04
	sigString byte = 0x05
	sigBottom byte = 0x06 // then ⊥'s length-prefixed text
	sigOther  byte = 0x07
)

// AppendIntSig appends a tagged, self-delimiting encoding of n.
func AppendIntSig(dst []byte, n int) []byte {
	dst = append(dst, sigInt)
	return appendZigzag(dst, int64(n))
}

// AppendStringSig appends a tagged, length-prefixed encoding of s.
func AppendStringSig(dst []byte, s string) []byte {
	return appendTagged(dst, sigString, s)
}

// AppendValueSig appends a tagged, self-delimiting encoding of v. The
// common Value types (nil, bool, int, string) and ⊥ are encoded without
// any reflection or dynamic call; anything else falls back to a
// reflective rendering via sigOtherKey, which is the one arm that
// allocates.
func AppendValueSig(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, sigNil)
	case bool:
		if x {
			return append(dst, sigTrue)
		}
		return append(dst, sigFalse)
	case int:
		dst = append(dst, sigInt)
		return appendZigzag(dst, int64(x))
	case string:
		return AppendStringSig(dst, x)
	case bottom:
		return appendTagged(dst, sigBottom, x.String())
	default:
		return appendTagged(dst, sigOther, sigOtherKey(v))
	}
}

// sigOtherKey renders a value outside the fast set, type-qualified so
// equal renderings of distinct types cannot collide.
func sigOtherKey(v Value) string { return fmt.Sprintf("%T=%v", v, v) }

// appendTagged appends tag, then s length-prefixed.
func appendTagged(dst []byte, tag byte, s string) []byte {
	dst = appendUvarint(append(dst, tag), uint64(len(s)))
	return append(dst, s...)
}

// appendUvarint appends n in LEB128 (the varint of encoding/binary,
// inlined to keep the signature path free of imports and bounds-check
// friendly).
func appendUvarint(dst []byte, n uint64) []byte {
	for n >= 0x80 {
		dst = append(dst, byte(n)|0x80)
		n >>= 7
	}
	return append(dst, byte(n))
}

// appendZigzag appends a signed value as a zigzag-mapped uvarint.
func appendZigzag(dst []byte, n int64) []byte {
	return appendUvarint(dst, uint64(n<<1)^uint64(n>>63))
}
