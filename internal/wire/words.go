package wire

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/bits"
	"reflect"
	"unsafe"
)

// Result words. Every float64 and int64 payload that leaves a process as
// JSON — a job Result's series on the HTTP API and from ppm-run -json, a
// node's reply fragments on its stdout pipe — travels as one JSON string:
// the standard, padded base64 of the values' little-endian 64-bit words.
// Go callers see plain slices (Float64s and Int64s are assignable to
// []float64 and []int64); only the JSON form differs. Unlike decimal
// text the form is bit-exact for every value, NaN payloads, ±Inf, -0 and
// subnormals included, costs no float formatting or parsing, and is about
// 11 bytes a value where decimal JSON takes 18-25 for a typical double.
//
// The decoder is strict: the text must be canonical base64 (padding
// bits zero, no line breaks) of a whole number of 8-byte words, or it is
// refused with a json.UnmarshalTypeError, which encoding/json completes
// with the name of the field being decoded. It allocates the result once,
// at its decoded size. An empty string and null both decode to an empty
// slice; an empty slice encodes as "".
//
// Decode a series by hand: jq -r .series | base64 -d | od -A n -t f8

// Float64s is a float64 payload whose JSON form is base64 words.
type Float64s []float64

// Int64s is an int64 payload whose JSON form is base64 words.
type Int64s []int64

// Float64 is one float64 whose JSON form is the base64 of its word.
type Float64 float64

var words = base64.StdEncoding.Strict()

// littleEndian is the host's byte order: a word's memory is its wire
// form on little-endian hosts, and is byte-swapped on the others.
var littleEndian = NativeLittleEndian()

// MarshalText encodes f as base64 words.
func (f Float64s) MarshalText() ([]byte, error) { return encodeWords(f), nil }

// UnmarshalText decodes base64 words into f.
func (f *Float64s) UnmarshalText(text []byte) (err error) {
	*f, err = decodeWords[float64](text, reflect.TypeFor[Float64s]())
	return err
}

// MarshalText encodes v as base64 words.
func (v Int64s) MarshalText() ([]byte, error) { return encodeWords(v), nil }

// UnmarshalText decodes base64 words into v.
func (v *Int64s) UnmarshalText(text []byte) (err error) {
	*v, err = decodeWords[int64](text, reflect.TypeFor[Int64s]())
	return err
}

// MarshalText encodes x as the base64 of its one word.
func (x Float64) MarshalText() ([]byte, error) {
	return encodeWords([]float64{float64(x)}), nil
}

// UnmarshalText decodes the base64 of exactly one word into x.
func (x *Float64) UnmarshalText(text []byte) error {
	w, err := decodeWords[float64](text, reflect.TypeFor[Float64]())
	if err != nil {
		return err
	}
	if len(w) != 1 {
		return refuse(reflect.TypeFor[Float64](), fmt.Sprintf("base64 of %d words, not 1", len(w)))
	}
	*x = Float64(w[0])
	return nil
}

// wordBytes views the words of v as their bytes, in host order.
func wordBytes[T float64 | int64](v []T) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
}

// swapWords reverses the bytes of each 8-byte word of b in place.
func swapWords(b []byte) {
	for i := 0; i+8 <= len(b); i += 8 {
		w := (*uint64)(unsafe.Pointer(&b[i]))
		*w = bits.ReverseBytes64(*w)
	}
}

func encodeWords[T float64 | int64](v []T) []byte {
	raw := wordBytes(v)
	if !littleEndian {
		raw = append([]byte(nil), raw...)
		swapWords(raw)
	}
	out := make([]byte, words.EncodedLen(len(raw)))
	words.Encode(out, raw)
	return out
}

// decodeWords decodes text into a slice allocated at its decoded size.
// All but the last 4-byte group decode straight into that slice; the last
// group, which carries the padding, goes through a 3-byte buffer, so the
// decoder never writes past the payload's end.
func decodeWords[T float64 | int64](text []byte, typ reflect.Type) ([]T, error) {
	if len(text) == 0 {
		return nil, nil
	}
	if len(text)%4 != 0 {
		return nil, refuse(typ, fmt.Sprintf("base64 of %d bytes (not whole 4-byte groups)", len(text)))
	}
	pad := 0
	if text[len(text)-1] == '=' {
		pad = 1
		if text[len(text)-2] == '=' {
			pad = 2
		}
	}
	n := len(text)/4*3 - pad
	if n%8 != 0 {
		return nil, refuse(typ, fmt.Sprintf("base64 payload of %d bytes (not whole 8-byte words)", n))
	}
	v := make([]T, n/8)
	raw := wordBytes(v)
	body := text[:len(text)-4]
	m, err := words.Decode(raw, body)
	if err == nil && m != len(body)/4*3 {
		err = fmt.Errorf("line breaks")
	}
	if err == nil {
		var last [3]byte
		var k int
		k, err = words.Decode(last[:], text[len(body):])
		if err == nil && k != 3-pad {
			err = fmt.Errorf("line breaks")
		}
		copy(raw[m:], last[:k])
	}
	if err != nil {
		return nil, refuse(typ, fmt.Sprintf("invalid base64 (%v)", err))
	}
	if !littleEndian {
		swapWords(raw)
	}
	return v, nil
}

// refuse is the decoders' error: encoding/json fills in the struct and
// field it was decoding, so the message names the field.
func refuse(typ reflect.Type, what string) error {
	return &json.UnmarshalTypeError{Value: what, Type: typ}
}
