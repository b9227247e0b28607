package mpi

import (
	"encoding/binary"
	"math"
)

// Op is a reduction operation over typed byte buffers. Apply folds `in`
// into `inout` elementwise; both hold elements of dt. All predefined
// operations are associative and commutative, matching their MPI
// counterparts.
type Op struct {
	Name  string
	Apply func(dt Datatype, inout, in []byte)
}

func foldFloat64(f func(a, b float64) float64) func(Datatype, []byte, []byte) {
	return func(dt Datatype, inout, in []byte) {
		switch dt {
		case Float64:
			for i := 0; i+8 <= len(in) && i+8 <= len(inout); i += 8 {
				a := math.Float64frombits(binary.LittleEndian.Uint64(inout[i:]))
				b := math.Float64frombits(binary.LittleEndian.Uint64(in[i:]))
				binary.LittleEndian.PutUint64(inout[i:], math.Float64bits(f(a, b)))
			}
		case Float32:
			for i := 0; i+4 <= len(in) && i+4 <= len(inout); i += 4 {
				a := math.Float32frombits(binary.LittleEndian.Uint32(inout[i:]))
				b := math.Float32frombits(binary.LittleEndian.Uint32(in[i:]))
				binary.LittleEndian.PutUint32(inout[i:], math.Float32bits(float32(f(float64(a), float64(b)))))
			}
		case Int64T:
			for i := 0; i+8 <= len(in) && i+8 <= len(inout); i += 8 {
				a := int64(binary.LittleEndian.Uint64(inout[i:]))
				b := int64(binary.LittleEndian.Uint64(in[i:]))
				binary.LittleEndian.PutUint64(inout[i:], uint64(int64(f(float64(a), float64(b)))))
			}
		case Int32T:
			for i := 0; i+4 <= len(in) && i+4 <= len(inout); i += 4 {
				a := int32(binary.LittleEndian.Uint32(inout[i:]))
				b := int32(binary.LittleEndian.Uint32(in[i:]))
				binary.LittleEndian.PutUint32(inout[i:], uint32(int32(f(float64(a), float64(b)))))
			}
		case Byte:
			for i := 0; i < len(in) && i < len(inout); i++ {
				inout[i] = byte(f(float64(inout[i]), float64(in[i])))
			}
		}
	}
}

// intOnly builds an Op body for exact integer/bitwise operations that must
// not round-trip through float64.
func intOnly(f64 func(a, b uint64) uint64) func(Datatype, []byte, []byte) {
	return func(dt Datatype, inout, in []byte) {
		switch dt.Size {
		case 8:
			for i := 0; i+8 <= len(in) && i+8 <= len(inout); i += 8 {
				a := binary.LittleEndian.Uint64(inout[i:])
				b := binary.LittleEndian.Uint64(in[i:])
				binary.LittleEndian.PutUint64(inout[i:], f64(a, b))
			}
		case 4:
			for i := 0; i+4 <= len(in) && i+4 <= len(inout); i += 4 {
				a := uint64(binary.LittleEndian.Uint32(inout[i:]))
				b := uint64(binary.LittleEndian.Uint32(in[i:]))
				binary.LittleEndian.PutUint32(inout[i:], uint32(f64(a, b)))
			}
		default:
			for i := 0; i < len(in) && i < len(inout); i++ {
				inout[i] = byte(f64(uint64(inout[i]), uint64(in[i])))
			}
		}
	}
}

// Predefined reduction operations (MPI_SUM, MPI_PROD, ...).
var (
	OpSum  = Op{"sum", foldFloat64(func(a, b float64) float64 { return a + b })}
	OpProd = Op{"prod", foldFloat64(func(a, b float64) float64 { return a * b })}
	OpMax  = Op{"max", foldFloat64(math.Max)}
	OpMin  = Op{"min", foldFloat64(math.Min)}
	OpLand = Op{"land", intOnly(func(a, b uint64) uint64 {
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	})}
	OpLor = Op{"lor", intOnly(func(a, b uint64) uint64 {
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	})}
	OpBand = Op{"band", intOnly(func(a, b uint64) uint64 { return a & b })}
	OpBor  = Op{"bor", intOnly(func(a, b uint64) uint64 { return a | b })}
	OpBxor = Op{"bxor", intOnly(func(a, b uint64) uint64 { return a ^ b })}
)
