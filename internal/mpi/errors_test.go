package mpi

import (
	"errors"
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

func TestErrClass(t *testing.T) {
	if ErrClass(nil) != ErrNone {
		t.Error("nil should map to MPI_SUCCESS")
	}
	if ErrClass(&Error{Class: ErrTag}) != ErrTag {
		t.Error("class not extracted")
	}
	if ErrClass(errors.New("plain")) != ErrOther {
		t.Error("foreign error should map to MPI_ERR_OTHER")
	}
}

func TestErrorsAreFatalDefault(t *testing.T) {
	runNative(t, 1, func(c *Comm) {
		defer func() {
			if recover() == nil {
				t.Error("send to out-of-range rank did not panic under the default handler")
			}
		}()
		c.Send(42, 1, nil)
	})
}

func TestErrorsReturn(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		c.SetErrhandler(ErrorsReturn)
		if c.Rank() != 0 {
			return
		}
		c.Send(42, 1, nil) // becomes a no-op
		e := c.LastError()
		if e == nil || e.Class != ErrRank {
			t.Fatalf("error = %v, want MPI_ERR_RANK", e)
		}
		if c.LastError() != nil {
			t.Error("LastError did not clear")
		}
		c.Send(1, -3, nil)
		if e := c.LastError(); e == nil || e.Class != ErrTag {
			t.Errorf("negative tag: error = %v", e)
		}
		r := c.Irecv(-9, 1, nil)
		if e := c.LastError(); e == nil || e.Class != ErrRank {
			t.Errorf("bad recv rank: error = %v", e)
		}
		r.Wait() // degraded request must not hang
	})
}

func TestCustomErrhandler(t *testing.T) {
	runNative(t, 1, func(c *Comm) {
		var got *Error
		c.SetErrhandler(func(cc *Comm, err *Error) {
			if cc != c {
				t.Error("handler got wrong communicator")
			}
			got = err
		})
		c.Send(7, 1, nil)
		if got == nil || got.Class != ErrRank {
			t.Errorf("custom handler saw %v", got)
		}
	})
}

func TestErrhandlerInheritedOnDup(t *testing.T) {
	runNative(t, 2, func(c *Comm) {
		c.SetErrhandler(ErrorsReturn)
		d := c.Dup()
		if c.Rank() == 0 {
			d.Send(99, 1, nil)
			if e := d.LastError(); e == nil || e.Class != ErrRank {
				t.Errorf("dup did not inherit handler: %v", e)
			}
		}
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
