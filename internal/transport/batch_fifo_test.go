package transport

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// sentFrame is one message of the reference sequence: what went in must be
// what comes out, byte for byte, in order.
type sentFrame struct {
	tag  int
	data []byte
}

// genSequence builds a deterministic randomized message sequence: sizes
// span empty control frames through multi-KB payloads, crossing both the
// frame-count and byte-size batch thresholds many times.
func genSequence(rng *rand.Rand, n int) []sentFrame {
	out := make([]sentFrame, n)
	for i := range out {
		size := 0
		switch rng.Intn(4) {
		case 0: // control-sized
		case 1:
			size = rng.Intn(64)
		case 2:
			size = rng.Intn(4096)
		case 3:
			size = rng.Intn(16 << 10)
		}
		data := make([]byte, size)
		for j := range data {
			data[j] = byte(i + j)
		}
		out[i] = sentFrame{tag: i, data: data}
	}
	return out
}

// runSequence pushes seq from proc 0 to proc 1 of w, interleaving forced
// flushes at the rng-chosen boundaries, and returns the received sequence
// in arrival order.
func runSequence(t *testing.T, w *wireWorld, rng *rand.Rand, seq []sentFrame) []sentFrame {
	t.Helper()
	for _, f := range seq {
		if err := w.ep(0).Send(&Message{Dst: 1, Kind: KindEager, Tag: f.tag, Data: f.data}); err != nil {
			t.Fatal(err)
		}
		// Random flush boundaries: roughly one forced flush per 8 sends,
		// landing anywhere relative to the batch thresholds and the
		// backstop timer's fires.
		if rng.Intn(8) == 0 {
			if err := w.pws[0].Flush(0, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.pws[0].Flush(NoProc, true); err != nil {
		t.Fatal(err)
	}

	var got []sentFrame
	deadline := time.Now().Add(10 * time.Second)
	for len(got) < len(seq) && time.Now().Before(deadline) {
		for _, m := range w.ep(1).Drain() {
			data := append([]byte(nil), m.Data...)
			got = append(got, sentFrame{tag: m.Tag, data: data})
			FreeMessage(m)
		}
		w.ep(1).WaitActivity(5 * time.Millisecond)
	}
	return got
}

// checkSequence asserts got reproduces want exactly: same frames, same
// order, same bytes.
func checkSequence(t *testing.T, label string, want, got []sentFrame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: received %d/%d frames", label, len(got), len(want))
	}
	for i := range want {
		if got[i].tag != want[i].tag {
			t.Fatalf("%s: frame %d: got tag %d, want %d (FIFO violated)", label, i, got[i].tag, want[i].tag)
		}
		if !bytes.Equal(got[i].data, want[i].data) {
			t.Fatalf("%s: frame %d (tag %d): payload differs (%d vs %d bytes)",
				label, i, want[i].tag, len(got[i].data), len(want[i].data))
		}
	}
}

func TestBatchedDeliveryKeepsSequence(t *testing.T) {
	// The batch-first redesign's core property: batching is invisible to
	// the receiver. The same message sequence, pushed through the wire
	// with random flush boundaries, must arrive byte-identical and in the
	// same per-pair order wherever the batch thresholds fall — at the
	// defaults and with batches so small that nearly every frame crosses
	// one. The thresholds are in-package variables that only this test
	// writes, while no wire exists; it restores them.
	const n = 400
	for _, mode := range []struct {
		label  string
		frames int
		bytes  int
		age    time.Duration
	}{
		{"batched", batchMaxFrames, batchMaxBytes, batchMaxAge},
		{"tiny-batches", 3, 1 << 10, 50 * time.Microsecond},
	} {
		t.Run(mode.label, func(t *testing.T) {
			pf, pb, pa := batchMaxFrames, batchMaxBytes, batchMaxAge
			defer func() { batchMaxFrames, batchMaxBytes, batchMaxAge = pf, pb, pa }()
			batchMaxFrames, batchMaxBytes, batchMaxAge = mode.frames, mode.bytes, mode.age
			onEachTopology(t, 2, func(t *testing.T, w *wireWorld) {
				rng := rand.New(rand.NewSource(42))
				seq := genSequence(rng, n)
				got := runSequence(t, w, rng, seq)
				checkSequence(t, mode.label, seq, got)
			})
		})
	}
}
