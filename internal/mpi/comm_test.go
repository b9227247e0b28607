package mpi

import (
	"testing"
)

func TestCommDup(t *testing.T) {
	runNative(t, 4, func(c *Comm) {
		dup := c.Dup()
		if dup.Rank() != c.Rank() || dup.Size() != c.Size() {
			t.Errorf("dup rank/size mismatch: %v/%v", dup.Rank(), dup.Size())
		}
		if dup.CtxP2P() == c.CtxP2P() {
			t.Error("dup must have fresh contexts")
		}
		// Traffic on the dup must not interfere with the parent: send the
		// same (rank, tag) on both and receive in swapped order.
		if c.Rank() == 0 {
			c.Send(1, 5, []byte{1})
			dup.Send(1, 5, []byte{2})
		} else if c.Rank() == 1 {
			b := make([]byte, 1)
			dup.Recv(0, 5, b)
			if b[0] != 2 {
				t.Errorf("dup traffic got %d", b[0])
			}
			c.Recv(0, 5, b)
			if b[0] != 1 {
				t.Errorf("parent traffic got %d", b[0])
			}
		}
		dup.Barrier()
	})
}

func TestCommSplit(t *testing.T) {
	runNative(t, 6, func(c *Comm) {
		// Even/odd split, keys reverse the order within each half.
		color := int(c.Rank()) % 2
		key := -int(c.Rank())
		sub := c.Split(color, key)
		if sub == nil {
			t.Fatal("expected a communicator")
		}
		if sub.Size() != 3 {
			t.Errorf("sub size %d", sub.Size())
		}
		// With key = -rank, the highest old rank gets new rank 0.
		wantRank := Rank((5 - int(c.Rank()) + color - 1 + (1 - color)) / 2)
		// even ranks 0,2,4 → keys 0,-2,-4 → order 4,2,0
		// odd ranks 1,3,5 → keys -1,-3,-5 → order 5,3,1
		var order []Rank
		if color == 0 {
			order = []Rank{4, 2, 0}
		} else {
			order = []Rank{5, 3, 1}
		}
		wantRank = -1
		for i, r := range order {
			if r == c.Rank() {
				wantRank = Rank(i)
			}
		}
		if sub.Rank() != wantRank {
			t.Errorf("split rank = %d want %d", sub.Rank(), wantRank)
		}
		// The subgroup must function as a full communicator.
		sum := sub.AllreduceFloat64(float64(c.Rank()), OpSum)
		want := 6.0 // 0+2+4
		if color == 1 {
			want = 9.0 // 1+3+5
		}
		if sum != want {
			t.Errorf("sub allreduce = %v want %v", sum, want)
		}
	})
}

func TestCommSplitUndefined(t *testing.T) {
	runNative(t, 4, func(c *Comm) {
		color := Undefined
		if c.Rank() < 2 {
			color = 0
		}
		sub := c.Split(color, 0)
		if c.Rank() < 2 {
			if sub == nil || sub.Size() != 2 {
				t.Errorf("expected 2-rank comm, got %v", sub)
			}
			sub.Barrier()
		} else if sub != nil {
			t.Error("undefined color must yield nil comm")
		}
	})
}

func TestNestedSplit(t *testing.T) {
	runNative(t, 8, func(c *Comm) {
		// Grid: 2 rows x 4 cols; split into rows then columns.
		row := c.Split(int(c.Rank())/4, int(c.Rank()))
		col := c.Split(int(c.Rank())%4, int(c.Rank()))
		if row.Size() != 4 || col.Size() != 2 {
			t.Fatalf("row %d col %d", row.Size(), col.Size())
		}
		rowSum := row.AllreduceFloat64(float64(c.Rank()), OpSum)
		colSum := col.AllreduceFloat64(float64(c.Rank()), OpSum)
		wantRow := 6.0 // 0+1+2+3
		if c.Rank() >= 4 {
			wantRow = 22.0 // 4+5+6+7
		}
		wantCol := float64(int(c.Rank())%4)*2 + 4
		if rowSum != wantRow || colSum != wantCol {
			t.Errorf("rank %d: rowSum %v (want %v) colSum %v (want %v)",
				c.Rank(), rowSum, wantRow, colSum, wantCol)
		}
		// Derived comms also support p2p with their own contexts.
		if row.Rank() == 0 {
			row.Send(1, 0, []byte{byte(c.Rank())})
		} else if row.Rank() == 1 {
			b := make([]byte, 1)
			st := row.Recv(0, 0, b)
			if st.Source != 0 {
				t.Errorf("source %d", st.Source)
			}
		}
	})
}

func TestChildContextsUniqueAcrossSiblings(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		a := c.Dup()
		b := c.Dup()
		if a.CtxP2P() == b.CtxP2P() || a.ctxColl == b.ctxColl {
			t.Error("sibling comms share contexts")
		}
		grandchild := a.Dup()
		if grandchild.CtxP2P() == b.CtxP2P() {
			t.Error("cousin comms share contexts")
		}
	})
}

func TestAnySourceOnSubComm(t *testing.T) {
	// A wildcard receive on a sub-communicator must only match messages
	// from members of that sub-communicator.
	runNative(t, 4, func(c *Comm) {
		sub := c.Split(int(c.Rank())%2, 0) // evens {0,2}, odds {1,3}
		if c.Rank() == 0 {
			buf := make([]byte, 1)
			st := sub.Recv(AnySource, 0, buf)
			if st.Source != 1 { // rank 2 is sub-rank 1 in the even comm
				t.Errorf("source %d", st.Source)
			}
			if buf[0] != 2 {
				t.Errorf("payload %d", buf[0])
			}
		} else if c.Rank() == 2 {
			sub.Send(0, 0, []byte{2})
		}
		c.Barrier()
	})
}
