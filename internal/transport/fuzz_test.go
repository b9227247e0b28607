package transport

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"
)

// encodeToBytes serializes m in the wire format (test helper).
func encodeToBytes(m *Message) []byte {
	b := make([]byte, wireHeaderLen, wireHeaderLen+len(m.Data))
	putMessageHeader(b, m)
	return append(b, m.Data...)
}

// decodeOne decodes the first frame of a byte stream with the wire's one
// decoder; lands, when non-nil, is the table its read loop would consult.
func decodeOne(data []byte, lands *landingTable) (*Message, error) {
	return newFrameReader(bytes.NewReader(data), lands).next()
}

// FuzzCodecRoundTrip feeds arbitrary byte streams to the decoder the
// socket read loop runs (frameReader). Invariants:
//
//   - the decoder never panics, whatever the input: truncated headers,
//     truncated payloads and corrupt length fields must all surface as
//     errors, with or without a landing buffer posted — and an error
//     leaves no claim behind;
//   - any successfully decoded message re-encodes and re-decodes to an
//     identical message, whether the stream arrives whole or in short
//     reads, and the reader stops exactly on the frame boundary;
//   - a rendezvous payload with a registration lands: the bytes are in the
//     posted buffer, the envelope carries the sender's length and no Data,
//     and nothing is written past the buffer — also when the buffer is
//     shorter than the payload, in which case the excess is skipped and
//     the frame behind it still decodes.
//
// The seed corpus covers every message kind, empty and non-empty
// payloads, negative tags, extreme meta values, payloads on both sides of
// directReadMin, and a truncation of each.
func FuzzCodecRoundTrip(f *testing.F) {
	seeds := []*Message{
		{Kind: KindEager, Src: 0, Dst: 1, Ctx: 1, Tag: 0, Seq: 0, Data: []byte("hi")},
		{Kind: KindRTS, Src: 3, Dst: 2, Ctx: 9, Tag: -5, Seq: 42, XID: 1 << 41, Meta: [4]int64{1, 2, 3, 1 << 62}},
		{Kind: KindCTS, Src: 1, Dst: 3, XID: 77},
		{Kind: KindData, Src: 2, Dst: 0, Seq: 7, XID: 77, Data: bytes.Repeat([]byte{0xAB}, 300)},
		{Kind: KindData, Src: 1, Dst: 4, Seq: 8, XID: 78, Data: bytes.Repeat([]byte{0xCD, 0xEF}, 3*directReadMin/4)},
		{Kind: KindAck, Src: 1, Dst: 0, Ctx: 4, Seq: 12, Meta: [4]int64{-1, 1, 1, 1}},
		{Kind: KindHash, Src: 0, Dst: 1, Meta: [4]int64{0, 1, 0, -9e18}},
		{Kind: KindCtl, Src: -1, Dst: 1, Tag: 2, Meta: [4]int64{3}},
		{Kind: Kind(200), Src: 1, Dst: 1, Tag: 1 << 40},
	}
	for _, m := range seeds {
		enc := encodeToBytes(m)
		f.Add(enc)
		if len(enc) > 3 {
			f.Add(enc[:len(enc)-3]) // truncated variant
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeOne(data, nil)
		if err != nil {
			checkFailedDecode(t, data)
			return
		}
		defer FreeMessage(m)
		// Round-trip: encode the decoded message and decode again, twice
		// over from one stream delivered in short reads.
		enc := encodeToBytes(m)
		fr := newFrameReader(iotest.HalfReader(bytes.NewReader(append(enc[:len(enc):len(enc)], enc...))), nil)
		for i := 0; i < 2; i++ {
			m2, err := fr.next()
			if err != nil {
				t.Fatalf("re-decode %d of re-encoded message failed: %v", i, err)
			}
			if !messagesEqual(m, m2) {
				t.Fatalf("round-trip mismatch:\n in: %+v\nout: %+v", m, m2)
			}
			FreeMessage(m2)
		}
		if _, err := fr.next(); err != io.EOF {
			t.Fatalf("reader did not stop on the frame boundary: %v", err)
		}
		if m.Kind == KindData && len(m.Data) > 0 {
			checkLanding(t, m, enc, len(m.Data))
			checkLanding(t, m, enc, len(m.Data)/2)
			checkLanding(t, m, enc, 0)
		}
	})
}

// checkFailedDecode: a stream the plain decode rejects is rejected with
// landing buffers armed too, and the failure releases its claim.
func checkFailedDecode(t *testing.T, data []byte) {
	if len(data) < wireHeaderLen {
		return
	}
	var hdr Message
	if _, err := parseMessageHeader(data[:wireHeaderLen], &hdr); err != nil {
		return
	}
	lands := newLandingTable(hdr.Dst, hdr.Dst+1)
	lands.post(hdr.Dst, hdr.XID, make([]byte, 16))
	if pm, err := decodeOne(data, lands); err == nil {
		t.Fatalf("plain decode failed but landing decode succeeded: %+v", pm)
	}
	if _, ok := lands.claim(hdr.Dst, hdr.XID); !ok {
		t.Fatal("failed decode left its landing registration claimed or consumed")
	}
}

// checkLanding decodes enc (the encoding of rendezvous payload m) followed
// by a second frame, with a landing buffer of bufLen bytes posted.
func checkLanding(t *testing.T, m *Message, enc []byte, bufLen int) {
	const guard = 8
	lands := newLandingTable(m.Dst, m.Dst+1)
	buf := bytes.Repeat([]byte{0x5A}, bufLen+guard)
	lands.post(m.Dst, m.XID, buf[:bufLen:bufLen])
	trailer := &Message{Kind: KindEager, Src: m.Src, Dst: m.Dst, Tag: 99, Data: []byte("behind")}
	stream := append(enc[:len(enc):len(enc)], encodeToBytes(trailer)...)
	fr := newFrameReader(iotest.HalfReader(bytes.NewReader(stream)), lands)

	lm, err := fr.next()
	if err != nil {
		t.Fatalf("landing decode (buffer %d of %d) failed: %v", bufLen, len(m.Data), err)
	}
	n, landed := lm.Landed()
	if !landed || n != len(m.Data) || lm.Data != nil {
		t.Fatalf("buffer %d: Landed() = %d, %v with %d Data bytes; want %d, true, none", bufLen, n, landed, len(lm.Data), len(m.Data))
	}
	if !envelopesEqual(m, lm) {
		t.Fatalf("landed envelope differs:\n in: %+v\nout: %+v", m, lm)
	}
	FreeMessage(lm)
	if !bytes.Equal(buf[:bufLen], m.Data[:bufLen]) {
		t.Fatalf("buffer %d: landed bytes differ from the payload", bufLen)
	}
	if !bytes.Equal(buf[bufLen:], bytes.Repeat([]byte{0x5A}, guard)) {
		t.Fatalf("buffer %d: wrote past the landing buffer", bufLen)
	}
	if _, ok := lands.claim(m.Dst, m.XID); ok {
		t.Fatal("a landed frame must consume its registration")
	}
	next, err := fr.next()
	if err != nil || !messagesEqual(trailer, next) {
		t.Fatalf("buffer %d: frame behind the landed one: %+v, %v", bufLen, next, err)
	}
	FreeMessage(next)
}

// envelopesEqual compares the wire-visible envelope fields (ignoring pool
// flags); messagesEqual the payload as well.
func envelopesEqual(a, b *Message) bool {
	return a.Kind == b.Kind && a.Src == b.Src && a.Dst == b.Dst &&
		a.Ctx == b.Ctx && a.Tag == b.Tag && a.Seq == b.Seq &&
		a.XID == b.XID && a.tseq == b.tseq && a.Meta == b.Meta
}

func messagesEqual(a, b *Message) bool {
	return envelopesEqual(a, b) && bytes.Equal(a.Data, b.Data)
}

// FuzzAckBatchDecode hardens the coalesced-ack payload decoder: arbitrary
// bytes must never panic, and valid encodings must round-trip.
func FuzzAckBatchDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeAckRecs(nil, []AckRec{{Ctx: 1, Seq: 2}}))
	f.Add(EncodeAckRecs(nil, []AckRec{{Ctx: 1, Seq: 2}, {Ctx: 3, Seq: 1 << 60}}))
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeAckRecs(data)
		if err != nil {
			return
		}
		enc := EncodeAckRecs(nil, recs)
		if !bytes.Equal(enc, data) {
			t.Fatalf("ack batch round-trip mismatch: %x vs %x", enc, data)
		}
	})
}
