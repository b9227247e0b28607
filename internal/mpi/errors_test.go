package mpi

import (
	"strings"
	"testing"
)

func TestErrorClassNames(t *testing.T) {
	if got := ClassName(ErrTruncate); got != "MPI_ERR_TRUNCATE" {
		t.Errorf("ClassName(ErrTruncate) = %q", got)
	}
	if got := ClassName(999); !strings.Contains(got, "999") {
		t.Errorf("unknown class name = %q", got)
	}
	e := &Error{Class: ErrRank, Msg: "boom"}
	if !strings.Contains(e.Error(), "MPI_ERR_RANK") || !strings.Contains(e.Error(), "boom") {
		t.Errorf("Error() = %q", e.Error())
	}
}

func TestErrorsAreFatalDefault(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		mustRaise(t, ErrRank, func() { c.Send(42, 1, nil) })
		mustRaise(t, ErrTag, func() { c.Send(1, -3, nil) })
		mustRaise(t, ErrRank, func() { c.Irecv(-9, 1, nil) })
		mustRaise(t, ErrTag, func() { c.Recv(0, -2, nil) })
	})
}

func TestAnySourceAndAnyTagStillValid(t *testing.T) {
	// Wildcards must not trip the argument validation.
	runNative(t, 2, func(c *Comm) {
		switch c.Rank() {
		case 0:
			buf := make([]byte, 1)
			st := c.Recv(AnySource, AnyTag, buf)
			if st.Source != 1 || buf[0] != 9 {
				t.Errorf("wildcard recv: %+v %v", st, buf)
			}
		case 1:
			c.Send(0, 4, []byte{9})
		}
	})
}

func TestProcNullPointToPoint(t *testing.T) {
	runNative(t, 1, func(c *Comm) {
		c.Send(ProcNull, 1, []byte{1})
		buf := []byte{0xAA}
		st := c.Recv(ProcNull, 1, buf)
		if st.Source != ProcNull || st.Tag != AnyTag || st.Count != 0 {
			t.Errorf("ProcNull recv status = %+v", st)
		}
		if buf[0] != 0xAA {
			t.Error("ProcNull recv wrote to the buffer")
		}
		// Sendrecv with both ends null.
		st = c.Sendrecv(ProcNull, 1, nil, ProcNull, 1, buf)
		if st.Source != ProcNull {
			t.Errorf("null Sendrecv status = %+v", st)
		}
	})
}
