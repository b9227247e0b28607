package transport

import (
	"sync"
	"unsafe"
)

// Message and payload pooling.
//
// Every message crossing the wire used to cost at least two heap
// allocations: the envelope copy taken by Endpoint.Send (so senders can
// reuse their Message struct) and, on the eager path, the payload copy
// taken by the PML so the application buffer is immediately reusable. On
// the small-message path those allocations — not the protocol — dominate;
// this file recycles both through sync.Pools.
//
// Ownership protocol (the part that makes recycling safe):
//
//   - Endpoint.Send copies the caller's envelope into a pooled Message and
//     hands it to the wire. From that point the message is owned by exactly
//     one party at a time: the wire, then the destination queue, then the
//     consumer that Drains it.
//   - A payload attached with SetPooledData travels with the message; it is
//     released together with the envelope.
//   - A LENT payload (Endpoint.SendLent) never becomes the message's: it is
//     not flagged pooled, so no release path hands it to FreeBuf, and the
//     wire is done with it — written out, or dropped with the frame — when
//     the lending call returns. Only the envelope is recycled.
//   - A LANDED frame (Message.Landed) has no payload to release: the reader
//     wrote the bytes into the receiver's own buffer and delivers the
//     envelope alone.
//   - The final consumer — the PML engine after copying an eager payload
//     (or a rendezvous payload that could not land) into the receive
//     buffer, a protocol discarding a duplicate, the transport dropping
//     traffic to a dead process — calls FreeMessage exactly once. Holding
//     any reference after FreeMessage is a use-after-free.
//   - FreeMessage is a no-op on messages that did not come from the pools
//     (tests and services build bare Message literals; they are garbage
//     collected as before). When in doubt, not freeing is always safe: the
//     object falls back to the garbage collector.
//
// Pool ownership is recorded per object (the flag bits below), so only
// objects actually handed out by a pool are ever returned to one.

// Message flag bits (Message.pflags).
const (
	flagPooledEnv  uint8 = 1 << iota // envelope came from msgPool
	flagPooledData                   // Data came from a buffer pool
	flagLanded                       // payload was read into a posted landing buffer; Data is nil
)

// msgPool recycles Message envelopes. No New hook: a nil Get is the
// pool-miss signal the metrics distinguish.
var msgPool sync.Pool

// bufClasses are the payload size classes, chosen to cover the eager path
// (default eager limit 64 KiB) with low internal fragmentation and to stop
// where buffers are large enough that the allocation cost is noise next to
// the memcpy.
var bufClasses = [...]int{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10}

// bufPools holds one sync.Pool per size class. Entries store the
// unsafe.Pointer to the buffer's first byte: pointer-shaped values fit in
// an interface without boxing, so neither Get nor Put allocates (a
// *[]byte box would cost one allocation per Put, defeating the pool on
// the small-message path). The pointer keeps the allocation alive for the
// garbage collector, and the class length reconstructs the full slice.
var bufPools [len(bufClasses)]sync.Pool

// classFor returns the index of the smallest class holding n bytes, or -1
// if n exceeds every class.
func classFor(n int) int {
	for i, c := range bufClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// GetBuf returns a byte slice of length n. When n fits a size class the
// backing array is recycled; otherwise it is a fresh allocation. The
// contents are unspecified (callers overwrite). The hit or miss counts in
// owner's cell of the pool counters: the process the buffer is taken for,
// the sender or, on a reader, the frame's destination.
func GetBuf(owner ProcID, n int) []byte {
	if n == 0 {
		return nil
	}
	ci := classFor(n)
	if ci < 0 {
		return make([]byte, n)
	}
	if v := bufPools[ci].Get(); v != nil {
		poolCells[int(owner)&(len(poolCells)-1)].bufHit.Inc()
		return unsafe.Slice((*byte)(v.(unsafe.Pointer)), bufClasses[ci])[:n]
	}
	poolCells[int(owner)&(len(poolCells)-1)].bufMiss.Inc()
	return make([]byte, n, bufClasses[ci])
}

// FreeBuf returns a buffer obtained from GetBuf to its pool. Callers must
// own b exclusively; after FreeBuf the slice must not be touched. Buffers
// whose capacity matches no size class are left to the garbage collector.
func FreeBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	// Only capacities that exactly match a class are recycled: a buffer we
	// did not shape can confuse length bookkeeping.
	for i, c := range bufClasses {
		if cap(b) == c {
			bufPools[i].Put(unsafe.Pointer(&b[:c][0]))
			return
		}
	}
}

// GetMessage returns an empty, pool-recycled Message envelope. The caller
// owns it until it is handed to the wire or freed. owner is counted as in
// GetBuf.
func GetMessage(owner ProcID) *Message {
	m, _ := msgPool.Get().(*Message)
	if m != nil {
		poolCells[int(owner)&(len(poolCells)-1)].msgHit.Inc()
	} else {
		poolCells[int(owner)&(len(poolCells)-1)].msgMiss.Inc()
		m = new(Message)
	}
	m.pflags = flagPooledEnv
	return m
}

// FreeMessage releases a message at the end of its life: the pooled payload
// (if any) returns to its buffer pool and the pooled envelope to the
// message pool. Messages built as plain literals pass through untouched,
// so calling FreeMessage at every terminal consumption point is safe
// regardless of where the message came from. The caller must hold the only
// reference.
func FreeMessage(m *Message) {
	if m == nil {
		return
	}
	if m.pflags&flagPooledData != 0 && m.Data != nil {
		FreeBuf(m.Data)
		m.Data = nil
		m.pflags &^= flagPooledData
	}
	if m.pflags&flagPooledEnv != 0 {
		*m = Message{}
		msgPool.Put(m)
	}
}

// SetPooledData attaches a pool-owned payload to the message: b must come
// from GetBuf, and ownership transfers to the message (FreeMessage will
// release it).
func (m *Message) SetPooledData(b []byte) {
	m.Data = b
	if b != nil {
		m.pflags |= flagPooledData
	}
}

// ownData replaces a lent payload by a pooled copy the message owns, for
// the paths on which the frame outlives the lending call. The copy is the
// sender's.
func (m *Message) ownData() {
	cp := GetBuf(m.Src, len(m.Data))
	copy(cp, m.Data)
	m.SetPooledData(cp)
}

// PooledData reports whether the payload is pool-owned (test hook).
func (m *Message) PooledData() bool { return m.pflags&flagPooledData != 0 }
