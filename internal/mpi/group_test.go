package mpi

import "testing"

func ranks(xs ...int) []Rank {
	out := make([]Rank, len(xs))
	for i, x := range xs {
		out[i] = Rank(x)
	}
	return out
}

func TestGroupBasics(t *testing.T) {
	g := WorldGroup(5)
	if g.Size() != 5 || g.Base(0) != 0 || g.Base(3) != 3 || g.Base(4) != 4 {
		t.Fatalf("world group wrong: %+v", g)
	}
	// A group keeps the order it is built in, and copies its ranks.
	in := ranks(4, 0, 2)
	h := NewGroup(in)
	in[0] = 9
	if h.Size() != 3 || h.Base(0) != 4 || h.Base(1) != 0 || h.Base(2) != 2 {
		t.Errorf("NewGroup(4, 0, 2) = %+v", h)
	}
}
