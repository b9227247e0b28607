package mpi

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/transport"
)

// BenchmarkNetpipeSmallMsg measures the NetPipe small-message hot path —
// an eager ping-pong between two in-process ranks with no delay model.
// allocs/op is the quantity the zero-copy fast path is judged by: the
// per-message envelope copy, the eager payload copy and the drain batch
// all come from recycled storage. The sub-benchmark names keep the
// "pooled/" prefix of the BENCH_PR4–PR10 rows they continue (the
// "unpooled" rows there are the retired ablation).
//
// Run with:
//
//	go test ./internal/mpi -bench NetpipeSmallMsg -benchmem
func BenchmarkNetpipeSmallMsg(b *testing.B) {
	for _, size := range []int{64, 1024, 16 << 10} {
		b.Run(fmt.Sprintf("pooled/%dB", size), func(b *testing.B) {
			benchPingPong(b, size)
		})
	}
}

func benchPingPong(b *testing.B, size int) {
	nw := transport.NewNetwork(2, nil)
	defer nw.Close()
	// One warm-up round trip so both engines exist before timing; the
	// partner starts its timed loop only once the timer has been reset, so
	// allocs/op counts exactly b.N round trips of both sides.
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		proc := NewProc(nw, 1)
		world := NewWorld(proc, NewNative(proc), 2)
		buf := make([]byte, size)
		world.Recv(0, 0, buf)
		world.Send(0, 1, buf)
		<-start
		for i := 0; i < b.N; i++ {
			world.Recv(0, 0, buf)
			world.Send(0, 1, buf)
		}
	}()

	proc := NewProc(nw, 0)
	world := NewWorld(proc, NewNative(proc), 2)
	buf := make([]byte, size)
	rbuf := make([]byte, size)
	world.Send(1, 0, buf)
	world.Recv(1, 1, rbuf)
	b.ReportAllocs()
	b.ResetTimer()
	close(start)
	for i := 0; i < b.N; i++ {
		world.Send(1, 0, buf)
		world.Recv(1, 1, rbuf)
	}
	wg.Wait()
	b.StopTimer()
}
