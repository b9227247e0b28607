package mpi

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestOpsProperty(t *testing.T) {
	// Sum and Max are commutative over random float64 vectors.
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		x1 := Float64Bytes(a)
		OpSum.Apply(Float64, x1, Float64Bytes(b))
		x2 := Float64Bytes(b)
		OpSum.Apply(Float64, x2, Float64Bytes(a))
		g1, g2 := BytesFloat64(x1), BytesFloat64(x2)
		for i := range g1 {
			if g1[i] != g2[i] && !(g1[i] != g1[i] && g2[i] != g2[i]) { // allow NaN==NaN
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64BytesRoundTripProperty(t *testing.T) {
	f := func(xs []float64) bool {
		got := BytesFloat64(Float64Bytes(xs))
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] && !(got[i] != got[i] && xs[i] != xs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInt64BytesRoundTripProperty(t *testing.T) {
	f := func(xs []int64) bool {
		got := BytesInt64(Int64Bytes(xs))
		return reflect.DeepEqual(got, xs) || (len(xs) == 0 && len(got) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLogicalBitwiseOps(t *testing.T) {
	a := Int64Bytes([]int64{0, 1, 0b1100})
	OpLand.Apply(Int64T, a, Int64Bytes([]int64{1, 1, 1}))
	if got := BytesInt64(a); got[0] != 0 || got[1] != 1 {
		t.Errorf("land: %v", got)
	}
	b := Int64Bytes([]int64{0, 0, 0})
	OpLor.Apply(Int64T, b, Int64Bytes([]int64{0, 2, 0}))
	if got := BytesInt64(b); got[0] != 0 || got[1] != 1 {
		t.Errorf("lor: %v", got)
	}
	c := Int64Bytes([]int64{0b1100})
	OpBand.Apply(Int64T, c, Int64Bytes([]int64{0b1010}))
	if got := BytesInt64(c); got[0] != 0b1000 {
		t.Errorf("band: %v", got)
	}
	d := Int64Bytes([]int64{0b1100})
	OpBxor.Apply(Int64T, d, Int64Bytes([]int64{0b1010}))
	if got := BytesInt64(d); got[0] != 0b0110 {
		t.Errorf("bxor: %v", got)
	}
}

func TestInt32Float32Ops(t *testing.T) {
	i32 := []byte{5, 0, 0, 0}
	OpSum.Apply(Int32T, i32, []byte{7, 0, 0, 0})
	if i32[0] != 12 {
		t.Errorf("int32 sum: %v", i32)
	}
	f32a := make([]byte, 4)
	f32b := make([]byte, 4)
	// 1.5f and 2.25f
	copy(f32a, []byte{0x00, 0x00, 0xc0, 0x3f})
	copy(f32b, []byte{0x00, 0x00, 0x10, 0x40})
	OpSum.Apply(Float32, f32a, f32b)
	if !reflect.DeepEqual(f32a, []byte{0x00, 0x00, 0x70, 0x40}) { // 3.75f
		t.Errorf("float32 sum: %v", f32a)
	}
}
