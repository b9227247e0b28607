// Package transport is an analysistest stub of the real pool API: the
// analyzer matches Get/Free by package *name*, so these signatures are
// all it needs.
package transport

// ProcID is the process identity the getters count against.
type ProcID int

// Message is the pooled envelope stand-in.
type Message struct {
	Data []byte
	Tag  int
}

func GetBuf(owner ProcID, n int) []byte { return make([]byte, n) }

func FreeBuf(b []byte) { _ = b }

func GetMessage(owner ProcID) *Message { return new(Message) }

func FreeMessage(m *Message) { _ = m }

// SetPooledData transfers ownership of b to m.
func (m *Message) SetPooledData(b []byte) { m.Data = b }
