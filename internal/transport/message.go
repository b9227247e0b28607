// Package transport provides the byte-transfer layer (BTL) of the simulated
// MPI stack: reliable, FIFO, ordered-pair channels between physical
// processes, with an optional network delay model and fail-stop fault
// injection.
//
// The package plays the role of Open MPI's BTL components in the paper's
// architecture (Figure 5). Everything above it — matching, requests,
// collectives, replication — only assumes the two properties the paper
// assumes of channels: reliability and FIFO ordering per ordered pair of
// processes.
//
// The wire API is batch-first: Wire.Deliver STAGES a frame toward its
// destination (taking ownership of the message — envelope and payload —
// in exchange for exactly one later release), and Wire.Flush emits what
// is staged as one vectored write per destination (net.Buffers over TCP,
// one push over a shared-memory ring). Flush points mirror the ack
// coalescer's: outbound-to-destination, batch full (frames or bytes),
// batch age, and always before blocking — the engine drives the last via
// FlushWire next to its OnFlush hook, and a per-wire one-shot timer, armed
// by a frame left staged, backstops engine-less callers. Batching never
// reorders: the per-pair
// batch is FIFO and the batch mutex is held across the write, so per
// ordered-pair FIFO holds across flush boundaries. See batch.go for the
// staging/ownership mechanics, peer.go for the socket wire, and ring.go for
// the colocated shared-memory rings negotiated at rendezvous.
//
// Two payload states exist besides "owned by the message" so that a
// rendezvous payload crosses user space without a copy on the socket wire.
// A LENT payload (Endpoint.SendLent) is the application's own buffer: the
// wire writes it out — behind whatever the link already holds, in the same
// vectored write — before the call returns, and keeps no reference to it; a
// wire that cannot consume it synchronously takes a pooled copy inside that
// call. A LANDED frame (Message.Landed) is one whose payload the socket
// reader wrote straight into the receive buffer posted for its exchange
// (Endpoint.PostLanding, landing.go): only the envelope is delivered, Data
// is nil, and the sender's length rides beside the flags.
package transport

import "fmt"

// ProcID identifies a physical process (a replica). IDs are dense: with
// n logical ranks they range over [0, Σ degrees), which is [0, r·n) under
// uniform replication degree r. The (replica, rank) ↔ ProcID mapping is
// owned by core.Layout.
type ProcID int

// NoProc is the zero-value-adjacent sentinel for "no process".
const NoProc ProcID = -1

// Kind classifies a transport message. The matching engine only sees
// KindEager/KindRTS/KindCTS/KindData traffic; acks and control messages are
// consumed by the protocol layer during progress.
type Kind uint8

const (
	// KindEager carries a complete application (or collective) payload.
	KindEager Kind = iota
	// KindRTS is a rendezvous request-to-send carrying only the envelope.
	KindRTS
	// KindCTS is a rendezvous clear-to-send, from receiver to sender.
	KindCTS
	// KindData is the rendezvous payload following a CTS.
	KindData
	// KindAck is a replication-protocol acknowledgement.
	KindAck
	// KindHash is a redMPI-style payload hash used for SDC detection.
	KindHash
	// KindCtl is a control message (failure notification, recovery
	// notification, protocol metadata).
	KindCtl
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindEager:
		return "eager"
	case KindRTS:
		return "rts"
	case KindCTS:
		return "cts"
	case KindData:
		return "data"
	case KindAck:
		return "ack"
	case KindHash:
		return "hash"
	case KindCtl:
		return "ctl"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is the unit of transfer between two physical processes.
//
// Envelope fields (Ctx, Tag, Seq, XID) are interpreted by the layers above;
// the transport only guarantees that messages from Src to Dst are delivered
// reliably and in the order they were sent.
type Message struct {
	Src ProcID
	Dst ProcID

	Kind Kind

	// Ctx is the communicator context ID the message belongs to.
	Ctx uint32
	// Tag is the MPI tag (or an internal protocol tag).
	Tag int
	// Seq is a protocol-level sequence number. For application messages
	// under replication it is the per-(source logical rank, destination
	// logical rank, context) message index, identical across replicas by
	// send-determinism.
	Seq uint64
	// XID identifies a rendezvous exchange (matches RTS/CTS/Data trios).
	XID uint64
	// Meta carries small protocol metadata (e.g. the logical source rank,
	// total rendezvous length, hash values).
	Meta [4]int64

	// Data is the payload. The transport does not copy it; senders must
	// not mutate a buffer after sending (the MPI layer enforces this with
	// its own copy at the eager boundary).
	Data []byte

	// tseq is the transport-level per-link sequence number, assigned by
	// the network for FIFO verification.
	tseq uint64

	// pflags records pool ownership (see pool.go): whether the envelope
	// and/or the payload were handed out by a pool and must be returned
	// by FreeMessage — and whether the payload landed. Never serialized;
	// zero for plain literals.
	pflags uint8
	// landed is the payload length of a landed frame (flagLanded). It sits
	// in the padding behind pflags: Message stays in its 128-byte class.
	landed uint32
}

// TransportSeq returns the per-ordered-pair FIFO sequence number assigned
// when the message entered the network. It exists so tests can assert FIFO
// delivery.
func (m *Message) TransportSeq() uint64 { return m.tseq }

// Len returns the payload length in bytes.
func (m *Message) Len() int { return len(m.Data) }

// Landed reports whether the wire read this frame's payload straight into
// the landing buffer posted for its exchange, and if so how many bytes the
// sender shipped — which is more than the buffer holds when the receive was
// truncated. A landed frame carries no Data.
func (m *Message) Landed() (n int, ok bool) {
	return int(m.landed), m.pflags&flagLanded != 0
}
