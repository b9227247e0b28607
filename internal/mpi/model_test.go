package mpi

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Model-based property tests: every collective is compared against a
// sequential reference computed from the same per-rank inputs, over
// randomized communicator sizes, element counts and operations. These
// complement the example-based tests in collectives_test.go by sweeping
// the size/op space.

// refInputs builds deterministic per-rank float64 vectors from a seed.
// Values are small integers so that every predefined op — including
// products across up to 8 ranks — is exact in float64, making the tree
// algorithms bit-comparable to the sequential fold.
func refInputs(n, elems int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for r := range out {
		out[r] = make([]float64, elems)
		for i := range out[r] {
			out[r][i] = math.Round(rng.Float64() * 8)
		}
	}
	return out
}

// opFold returns the sequential fold of op over the rank inputs in rank
// order (the order our tree algorithms must be equivalent to — all
// predefined ops are associative and commutative on dyadic rationals).
func opFold(op Op, inputs [][]float64) []float64 {
	acc := append([]float64(nil), inputs[0]...)
	for _, in := range inputs[1:] {
		accB := Float64Bytes(acc)
		op.Apply(Float64, accB, Float64Bytes(in))
		acc = BytesFloat64(accB)
	}
	return acc
}

func namedOps() []Op {
	return []Op{OpSum, OpMax, OpMin, OpProd}
}

func TestAllreduceMatchesModel(t *testing.T) {
	prop := func(nRaw, elemsRaw, opRaw uint8, seed int64) bool {
		n := int(nRaw%7) + 1
		elems := int(elemsRaw%9) + 1
		op := namedOps()[int(opRaw)%len(namedOps())]
		inputs := refInputs(n, elems, seed)
		want := opFold(op, inputs)
		ok := true
		runNative(t, n, func(c *Comm) {
			got := BytesFloat64(c.Allreduce(Float64Bytes(inputs[c.Rank()]), Float64, op))
			for i := range want {
				if got[i] != want[i] {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallMatchesModel(t *testing.T) {
	prop := func(nRaw, blRaw uint8, seed int64) bool {
		n := int(nRaw%7) + 1
		bl := int(blRaw%5) + 1
		rng := rand.New(rand.NewSource(seed))
		// data[r] holds n blocks of bl bytes.
		data := make([][]byte, n)
		for r := range data {
			data[r] = make([]byte, n*bl)
			rng.Read(data[r])
		}
		ok := true
		runNative(t, n, func(c *Comm) {
			me := int(c.Rank())
			got := c.Alltoall(data[me], bl)
			for src := 0; src < n; src++ {
				want := data[src][me*bl : (me+1)*bl]
				if !bytes.Equal(got[src*bl:(src+1)*bl], want) {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
