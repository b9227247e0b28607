package bench

import "testing"

func TestWireScaleBatchingAmortizesFlushes(t *testing.T) {
	// The acceptance property of the batch-first redesign, checked at
	// small scale: the windowed exchange must show frames-per-flush > 1
	// and less than one flush syscall per application message — what a
	// write per message would pay (BENCH_PR8.json keeps that measured
	// baseline) — on both the TCP and the ring path.
	rows, err := WireScaleCurve([]int{8}, []int{2}, []int{256}, []string{"tcp", "ring"}, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]WireScaleRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	for _, mode := range []string{"tcp", "ring"} {
		r := byMode[mode]
		if r.FramesPerFlush() <= 1 {
			t.Errorf("%s: frames/flush = %.2f, want > 1", mode, r.FramesPerFlush())
		}
		if r.FlushesPerMsg() >= 1 {
			t.Errorf("%s: flushes/msg = %.3f, want < 1", mode, r.FlushesPerMsg())
		}
	}
	if ring := byMode["ring"]; ring.RingFrames == 0 {
		t.Error("ring mode moved no frames over the shared-memory path")
	}
}
