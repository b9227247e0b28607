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

// raise reports an argument error the way MPI's default handler,
// MPI_ERRORS_ARE_FATAL, does: it panics with the error's text.
func raise(class int, format string, args ...any) {
	err := &Error{Class: class, Msg: fmt.Sprintf(format, args...)}
	panic(err.Error())
}

// checkSendArgs raises an error for an invalid send destination or tag.
func (c *Comm) checkSendArgs(to Rank, tag int) {
	if to == ProcNull {
		return
	}
	if to < 0 || int(to) >= c.Size() {
		raise(ErrRank, "send to rank %d outside communicator of size %d", to, c.Size())
	}
	if tag < 0 {
		raise(ErrTag, "negative tag %d on send", tag)
	}
}

// checkRecvArgs raises an error for an invalid receive source or tag.
func (c *Comm) checkRecvArgs(from Rank, tag int) {
	if from == ProcNull || from == AnySource {
		return
	}
	if from < 0 || int(from) >= c.Size() {
		raise(ErrRank, "receive from rank %d outside communicator of size %d", from, c.Size())
	}
	if tag != AnyTag && tag < 0 {
		raise(ErrTag, "negative tag %d on receive", tag)
	}
}
