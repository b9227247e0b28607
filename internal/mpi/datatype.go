package mpi

import (
	"encoding/binary"
	"math"
)

// Datatype describes the element type of a typed buffer, enough for the
// reduction operations to interpret raw bytes.
type Datatype struct {
	Name string
	Size int // bytes per element
}

// Predefined datatypes.
var (
	Byte    = Datatype{"byte", 1}
	Int32T  = Datatype{"int32", 4}
	Int64T  = Datatype{"int64", 8}
	Float32 = Datatype{"float32", 4}
	Float64 = Datatype{"float64", 8}
)

// --- Typed encode/decode helpers ------------------------------------------

// Float64Bytes encodes a float64 slice into a fresh byte buffer.
func Float64Bytes(xs []float64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// BytesFloat64 decodes a byte buffer into float64s.
func BytesFloat64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// PutFloat64s encodes xs into dst, which must hold 8*len(xs) bytes, and
// returns the encoded prefix: Float64Bytes into a buffer the caller reuses.
func PutFloat64s(dst []byte, xs []float64) []byte {
	dst = dst[:8*len(xs)]
	for i, x := range xs {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
	return dst
}

// GetFloat64s decodes b into dst, which must hold len(b)/8 values:
// BytesFloat64 without the fresh slice.
func GetFloat64s(dst []float64, b []byte) {
	for i := range dst[:len(b)/8] {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// Int64Bytes encodes an int64 slice.
func Int64Bytes(xs []int64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// BytesInt64 decodes int64s.
func BytesInt64(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Float64Value round-trips a single float64 (handy for scalar reductions).
func Float64Value(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Int64Value decodes a single int64.
func Int64Value(b []byte) int64 {
	return int64(binary.LittleEndian.Uint64(b))
}
