package transport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// wireHeaderLen is the fixed envelope size on the wire: kind(1) pad(3)
// src(4) dst(4) ctx(4) tag(8) seq(8) xid(8) tseq(8) meta(32) len(4).
const wireHeaderLen = 1 + 3 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 32 + 4

// maxWirePayload bounds a single message payload on the wire (64 MiB),
// protecting the decoder against corrupt length fields.
const maxWirePayload = 64 << 20

// putMessageHeader encodes m's fixed-size wire envelope into hdr, which
// must be at least wireHeaderLen bytes. The batched wires use it to build
// header segments for net.Buffers vectored writes without a bufio staging
// copy.
func putMessageHeader(hdr []byte, m *Message) {
	hdr[0] = byte(m.Kind)
	hdr[1], hdr[2], hdr[3] = 0, 0, 0
	le := binary.LittleEndian
	le.PutUint32(hdr[4:], uint32(int32(m.Src)))
	le.PutUint32(hdr[8:], uint32(int32(m.Dst)))
	le.PutUint32(hdr[12:], m.Ctx)
	le.PutUint64(hdr[16:], uint64(int64(m.Tag)))
	le.PutUint64(hdr[24:], m.Seq)
	le.PutUint64(hdr[32:], m.XID)
	le.PutUint64(hdr[40:], m.tseq)
	for i, v := range m.Meta {
		le.PutUint64(hdr[48+8*i:], uint64(v))
	}
	le.PutUint32(hdr[80:], uint32(len(m.Data)))
}

// headerDst reads the destination out of an encoded envelope: readers take
// the frame's pooled envelope on its destination's account.
func headerDst(hdr []byte) ProcID { return ProcID(int32(binary.LittleEndian.Uint32(hdr[8:]))) }

// parseMessageHeader decodes the fixed wire envelope from hdr into m,
// preserving m's pool-ownership flags, and returns the payload length. A
// length above maxWirePayload fails closed (corrupt or hostile stream).
func parseMessageHeader(hdr []byte, m *Message) (int, error) {
	le := binary.LittleEndian
	m.Kind = Kind(hdr[0])
	m.Src = ProcID(int32(le.Uint32(hdr[4:])))
	m.Dst = headerDst(hdr)
	m.Ctx = le.Uint32(hdr[12:])
	m.Tag = int(int64(le.Uint64(hdr[16:])))
	m.Seq = le.Uint64(hdr[24:])
	m.XID = le.Uint64(hdr[32:])
	m.tseq = le.Uint64(hdr[40:])
	for i := range m.Meta {
		m.Meta[i] = int64(le.Uint64(hdr[48+8*i:]))
	}
	n := le.Uint32(hdr[80:])
	if n > maxWirePayload {
		return 0, fmt.Errorf("transport: wire payload %d exceeds limit", n)
	}
	return int(n), nil
}

// Sizes of the inbound frame reader. Both are constants of the design, not
// knobs: the staging buffer only has to hold a batch of envelopes and eager
// frames, and it is also the bound on how much of a rendezvous payload a
// reader parked in read(2) can swallow before it has seen the header —
// bytes that then reach the landing buffer by copy after all. PR 19's
// sweep over both socket workloads picked the value (CHANGES.md).
const (
	// stagingSize is the per-connection staging buffer.
	stagingSize = 32 << 10
	// directReadMin is the shortest payload remainder read from the
	// connection straight into its destination; a shorter one is cheaper
	// to fetch through staging, where the same read(2) also pulls in the
	// frames behind it.
	directReadMin = 4 << 10
)

// frameReader decodes one inbound connection's frames — the socket read
// loop's only decoder (the ring scanner has its own resumable one over the
// same header parser). Small frames are staged in a small buffer, many per
// read(2); every payload byte the header's read did not already pull in
// moves from the connection directly into its destination, which is the
// posted landing buffer when the frame is a rendezvous payload with a
// registration (see landing.go) and a pooled buffer otherwise.
type frameReader struct {
	c     io.Reader
	lands *landingTable // nil: nothing lands
	buf   []byte        // staging; buf[r:w] is read but not consumed
	r, w  int
}

func newFrameReader(c io.Reader, lands *landingTable) *frameReader {
	return &frameReader{c: c, lands: lands, buf: make([]byte, stagingSize)}
}

// fill makes at least n ≤ stagingSize unconsumed bytes available in
// staging. It fails with io.EOF only on a frame boundary of an empty
// stream; a stream that ends inside the n bytes is io.ErrUnexpectedEOF.
func (fr *frameReader) fill(n int) error {
	have := fr.w - fr.r
	if have >= n {
		return nil
	}
	// Callers consume whole payloads before asking for more, so what is
	// left over here is at most a partial header: moving it is cheap.
	if fr.r > 0 {
		copy(fr.buf, fr.buf[fr.r:fr.w])
		fr.r, fr.w = 0, have
	}
	k, err := io.ReadAtLeast(fr.c, fr.buf[have:], n-have)
	fr.w += k
	if err == io.EOF && have > 0 {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// read moves the next len(dst) stream bytes into dst: what staging holds
// first, then the remainder — straight from the connection when it is long
// enough to be worth a read(2) of its own.
func (fr *frameReader) read(dst []byte) error {
	n := copy(dst, fr.buf[fr.r:fr.w])
	fr.r += n
	dst = dst[n:]
	if len(dst) == 0 {
		return nil
	}
	if len(dst) >= directReadMin {
		_, err := io.ReadFull(fr.c, dst)
		return err
	}
	if err := fr.fill(len(dst)); err != nil {
		return err
	}
	fr.r += copy(dst, fr.buf[fr.r:fr.w])
	return nil
}

// discard drops the next n stream bytes.
func (fr *frameReader) discard(n int) error {
	for n > 0 {
		if err := fr.fill(1); err != nil {
			return err
		}
		k := min(n, fr.w-fr.r)
		fr.r += k
		n -= k
	}
	return nil
}

// next decodes one frame into a pooled envelope. Its payload is pooled too
// unless it landed (Message.Landed), in which case Data stays nil. The
// final consumer releases the message with FreeMessage; on error nothing
// pooled is retained and no landing claim is left behind.
func (fr *frameReader) next() (*Message, error) {
	if err := fr.fill(wireHeaderLen); err != nil {
		return nil, err
	}
	hdr := fr.buf[fr.r : fr.r+wireHeaderLen]
	m := GetMessage(headerDst(hdr))
	n, err := parseMessageHeader(hdr, m)
	fr.r += wireHeaderLen
	if err == nil && n > 0 {
		if err = fr.payload(m, n); err == io.EOF {
			err = io.ErrUnexpectedEOF // the stream ended inside the frame
		}
	}
	if err != nil {
		FreeMessage(m)
		return nil, err
	}
	return m, nil
}

// payload reads m's n payload bytes into the landing buffer posted for the
// exchange, or into a pooled buffer when there is none.
func (fr *frameReader) payload(m *Message, n int) error {
	if m.Kind == KindData {
		if buf, ok := fr.lands.claim(m.Dst, m.XID); ok {
			// Never past len(buf): the excess of a truncated receive is
			// dropped from the stream, the sender's length is reported.
			fit := min(n, len(buf))
			err := fr.read(buf[:fit])
			if err == nil {
				err = fr.discard(n - fit)
			}
			fr.lands.release(m.Dst, m.XID, err == nil)
			if err == nil {
				m.pflags |= flagLanded
				m.landed = uint32(n)
				mLandedFrames.Inc()
			}
			return err
		}
	}
	m.SetPooledData(GetBuf(m.Dst, n))
	return fr.read(m.Data)
}
