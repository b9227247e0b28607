package mpi

import "fmt"

// Error classes, mirroring the MPI error classes the library can raise.
const (
	ErrNone     = iota // MPI_SUCCESS
	ErrRank            // MPI_ERR_RANK: rank out of communicator range
	ErrTag             // MPI_ERR_TAG: negative tag on a send
	ErrCount           // MPI_ERR_COUNT: bad buffer size
	ErrType            // MPI_ERR_TYPE: malformed derived datatype
	ErrTruncate        // MPI_ERR_TRUNCATE: message longer than receive buffer
	ErrComm            // MPI_ERR_COMM: operation on an invalid communicator
	ErrTopology        // MPI_ERR_TOPOLOGY: bad topology specification
	ErrRequest         // MPI_ERR_REQUEST: misuse of a (persistent) request
	ErrOther           // MPI_ERR_OTHER
)

// errClassNames maps classes to their MPI-style names.
var errClassNames = [...]string{
	ErrNone:     "MPI_SUCCESS",
	ErrRank:     "MPI_ERR_RANK",
	ErrTag:      "MPI_ERR_TAG",
	ErrCount:    "MPI_ERR_COUNT",
	ErrType:     "MPI_ERR_TYPE",
	ErrTruncate: "MPI_ERR_TRUNCATE",
	ErrComm:     "MPI_ERR_COMM",
	ErrTopology: "MPI_ERR_TOPOLOGY",
	ErrRequest:  "MPI_ERR_REQUEST",
	ErrOther:    "MPI_ERR_OTHER",
}

// Error is a library error with an MPI error class.
type Error struct {
	Class int
	Msg   string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("mpi: %s: %s", ClassName(e.Class), e.Msg)
}

// ClassName returns the MPI-style name of an error class.
func ClassName(class int) string {
	if class >= 0 && class < len(errClassNames) {
		return errClassNames[class]
	}
	return fmt.Sprintf("MPI_ERR(%d)", class)
}

// ErrClass extracts the error class from an error (ErrOther if it is not
// an *Error, ErrNone if nil).
func ErrClass(err error) int {
	if err == nil {
		return ErrNone
	}
	if e, ok := err.(*Error); ok {
		return e.Class
	}
	return ErrOther
}

// Errhandler decides what happens when the library detects an error on a
// communicator. The default, ErrorsAreFatal, panics — matching both MPI's
// default MPI_ERRORS_ARE_FATAL and this library's original behaviour.
type Errhandler func(c *Comm, err *Error)

// ErrorsAreFatal panics with the error (MPI_ERRORS_ARE_FATAL).
func ErrorsAreFatal(c *Comm, err *Error) {
	panic(err.Error())
}

// ErrorsReturn records the error on the communicator without unwinding
// (MPI_ERRORS_RETURN); retrieve it with Comm.LastError.
func ErrorsReturn(c *Comm, err *Error) {
	c.lastErr = err
}

// SetErrhandler installs the communicator's error handler
// (MPI_Comm_set_errhandler). A nil handler restores the default.
func (c *Comm) SetErrhandler(h Errhandler) {
	c.errh = h
}

// LastError returns and clears the most recent error recorded by
// ErrorsReturn on this communicator.
func (c *Comm) LastError() *Error {
	e := c.lastErr
	c.lastErr = nil
	return e
}

// raise routes an error through the communicator's handler. It returns the
// error so callers can propagate it when the handler does not unwind.
func (c *Comm) raise(class int, format string, args ...any) *Error {
	err := &Error{Class: class, Msg: fmt.Sprintf(format, args...)}
	h := c.errh
	if h == nil {
		h = ErrorsAreFatal
	}
	h(c, err)
	return err
}

// checkSendArgs validates send arguments through the error handler.
// It returns non-nil (and the send becomes a no-op) only when the handler
// does not unwind.
func (c *Comm) checkSendArgs(to Rank, tag int) *Error {
	if to == ProcNull {
		return nil
	}
	if to < 0 || int(to) >= c.Size() {
		return c.raise(ErrRank, "send to rank %d outside communicator of size %d", to, c.Size())
	}
	if tag < 0 {
		return c.raise(ErrTag, "negative tag %d on send", tag)
	}
	return nil
}

// checkRecvArgs validates receive arguments through the error handler.
func (c *Comm) checkRecvArgs(from Rank, tag int) *Error {
	if from == ProcNull || from == AnySource {
		return nil
	}
	if from < 0 || int(from) >= c.Size() {
		return c.raise(ErrRank, "receive from rank %d outside communicator of size %d", from, c.Size())
	}
	if tag != AnyTag && tag < 0 {
		return c.raise(ErrTag, "negative tag %d on receive", tag)
	}
	return nil
}
