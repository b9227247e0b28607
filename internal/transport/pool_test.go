// Pool and sharded-queue tests. The table-driven concurrency tests below
// are written for the race detector; CI runs them (with the rest of the
// package) under:
//
//	go test -race ./internal/transport ./internal/mpi ./internal/core
//
// and they must stay race-clean: the pools and the per-source inbound
// shards are exactly the state many goroutines hit at once.
package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBufPoolSizing(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1 << 10, 64 << 10, 256 << 10, 300 << 10, 1 << 20} {
		b := GetBuf(0, n)
		if len(b) != n {
			t.Fatalf("GetBuf(%d) returned len %d", n, len(b))
		}
		FreeBuf(b)
	}
}

func TestBufPoolRecycles(t *testing.T) {
	// A freed class-sized buffer must be reusable at full class capacity.
	b := GetBuf(0, 100)
	if cap(b) != 256 {
		t.Fatalf("GetBuf(100) cap = %d, want class 256", cap(b))
	}
	FreeBuf(b)
	c := GetBuf(0, 200)
	if cap(c) != 256 {
		t.Fatalf("GetBuf(200) cap = %d, want class 256", cap(c))
	}
}

func TestFreeMessageIsNoOpForLiterals(t *testing.T) {
	m := &Message{Kind: KindEager, Data: []byte{1, 2, 3}}
	FreeMessage(m) // must not panic or zero a literal's fields
	if m.Kind != KindEager || len(m.Data) != 3 {
		t.Fatalf("literal mutated by FreeMessage: %+v", m)
	}
}

func TestSendPooledDataOwnershipTransfers(t *testing.T) {
	nw := NewNetwork(2, nil)
	defer nw.Close()
	var m Message
	m.Dst = 1
	m.Kind = KindEager
	m.SetPooledData(GetBuf(0, 16))
	copy(m.Data, "sixteen bytes!!!")
	if err := nw.Endpoint(0).Send(&m); err != nil {
		t.Fatal(err)
	}
	if m.PooledData() {
		t.Fatal("sender still owns the payload after Send")
	}
	got := nw.Endpoint(1).Drain()
	if len(got) != 1 || string(got[0].Data[:16]) != "sixteen bytes!!!" {
		t.Fatalf("drained %v", got)
	}
	if !got[0].PooledData() {
		t.Fatal("delivered message lost pool ownership of its payload")
	}
	FreeMessage(got[0])
}

func TestSendInvalidDestReleasesPooledData(t *testing.T) {
	nw := NewNetwork(2, nil)
	defer nw.Close()
	var m Message
	m.Dst = 99
	m.SetPooledData(GetBuf(0, 16))
	if err := nw.Endpoint(0).Send(&m); err == nil {
		t.Fatal("expected error")
	}
	if m.PooledData() || m.Data != nil {
		t.Fatal("failed send must release the pooled payload")
	}
}

// TestPoolConcurrency is the table-driven race test for the pools: many
// goroutines get, fill, verify and free buffers and messages.
func TestPoolConcurrency(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		iters   int
		sizes   []int
	}{
		{"small-buffers", 8, 2000, []int{1, 64, 256}},
		{"eager-sizes", 8, 1000, []int{1 << 10, 16 << 10, 64 << 10}},
		{"mixed-with-unpooled-size", 8, 1000, []int{64, 4 << 10, 300 << 10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < tc.workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < tc.iters; i++ {
						size := tc.sizes[i%len(tc.sizes)]
						b := GetBuf(0, size)
						if len(b) != size {
							t.Errorf("len %d want %d", len(b), size)
							return
						}
						fill := byte(w<<4 | i&0xf)
						for j := range b {
							b[j] = fill
						}
						m := GetMessage(0)
						m.Seq = uint64(i)
						m.SetPooledData(b)
						for j := range m.Data {
							if m.Data[j] != fill {
								t.Errorf("worker %d iter %d: buffer shared while owned", w, i)
								return
							}
						}
						FreeMessage(m)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestShardedQueueConcurrency is the table-driven race test for the
// per-source inbound shards: concurrent senders (more than there are
// shards), a draining receiver, and optional kill/revive churn, with
// per-source FIFO checked throughout.
func TestShardedQueueConcurrency(t *testing.T) {
	cases := []struct {
		name    string
		senders int
		perSrc  int
		churn   bool // kill/revive the receiver mid-stream
	}{
		{"many-senders", 12, 400, false},
		{"more-senders-than-shards", 24, 200, false},
		{"kill-revive-churn", 12, 400, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := NewNetwork(tc.senders+1, nil)
			defer nw.Close()
			dst := ProcID(tc.senders)
			var wg sync.WaitGroup
			for s := 0; s < tc.senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					ep := nw.Endpoint(ProcID(s))
					for i := 0; i < tc.perSrc; i++ {
						ep.Send(&Message{Dst: dst, Kind: KindEager, Seq: uint64(i)})
					}
				}(s)
			}
			stop := make(chan struct{})
			if tc.churn {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						select {
						case <-stop:
							return
						default:
						}
						nw.Kill(dst)
						time.Sleep(200 * time.Microsecond)
						nw.Revive(dst)
						time.Sleep(200 * time.Microsecond)
					}
				}()
			}

			recv := nw.Endpoint(dst)
			next := map[ProcID]uint64{}
			total := 0
			deadline := time.Now().Add(10 * time.Second)
			if tc.churn {
				// Churn may legitimately drop most traffic (kill clears
				// nothing, revive clears everything); bound the wait.
				deadline = time.Now().Add(2 * time.Second)
			}
			for total < tc.senders*tc.perSrc && time.Now().Before(deadline) {
				recv.WaitActivity(time.Millisecond)
				for _, m := range recv.Drain() {
					// Churn drops and resets streams; FIFO still means
					// seq never goes backwards without a queue clear.
					if !tc.churn && m.Seq != next[m.Src] {
						t.Fatalf("out of order from %d: seq %d want %d", m.Src, m.Seq, next[m.Src])
					}
					next[m.Src] = m.Seq + 1
					total++
					FreeMessage(m)
				}
				if tc.churn && total > tc.senders*tc.perSrc/4 {
					break // enough: churn runs verify survival, not totals
				}
			}
			close(stop)
			if !tc.churn && total != tc.senders*tc.perSrc {
				t.Fatalf("received %d/%d", total, tc.senders*tc.perSrc)
			}
			wg.Wait()
		})
	}
}

// TestAckBatchRoundTrip exercises the coalesced-ack codec, including its
// rejection paths.
func TestAckBatchRoundTrip(t *testing.T) {
	recs := []AckRec{{Ctx: 1, Seq: 9}, {Ctx: 1, Seq: 10}, {Ctx: 7, Seq: 0}}
	buf := EncodeAckRecs(GetBuf(0, AckBatchBytes(len(recs)))[:0], recs)
	if len(buf) != AckBatchBytes(len(recs)) {
		t.Fatalf("encoded %d bytes, want %d", len(buf), AckBatchBytes(len(recs)))
	}
	got, err := DecodeAckRecs(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v want %+v", i, got[i], recs[i])
		}
	}
	if _, err := DecodeAckRecs(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated batch must error")
	}
	FreeBuf(buf)
}

// BenchmarkSendDrain measures the raw transport path — pooled envelope
// copy, sharded inject, drain. The sub-benchmark names keep the "pooled/"
// prefix of the BENCH_PR4–PR10 rows they continue (the "unpooled" rows
// there are the retired ablation).
//
//	go test ./internal/transport -bench SendDrain -benchmem
func BenchmarkSendDrain(b *testing.B) {
	for _, size := range []int{64, 4 << 10} {
		b.Run(fmt.Sprintf("pooled/%dB", size), func(b *testing.B) {
			nw := NewNetwork(2, nil)
			defer nw.Close()
			src, dst := nw.Endpoint(0), nw.Endpoint(1)
			payload := GetBuf(0, size)
			FreeBuf(payload)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var m Message
				m.Dst = 1
				m.Kind = KindEager
				m.SetPooledData(GetBuf(0, size))
				src.Send(&m)
				for _, got := range dst.Drain() {
					FreeMessage(got)
				}
			}
		})
	}
}
