package core

import (
	"fmt"
	"testing"

	"repro/internal/detect"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// Sequencer microbenchmark: the dense per-rank tables and seq-indexed
// stash rings at 64–256 source ranks, against a real matching engine and
// pre-built arrival schedules. One op is one full round of
// sources × seqWindow arrivals, with the engine drained off the clock
// between rounds. (BENCH_PR10.json records the comparison against the
// seed's map-keyed sequencer.)
//
//	order=inorder      every arrival is the expected next seq — the pure
//	                   lookup/advance fast path
//	order=adversarial  each source's window arrives seq-reversed, so
//	                   every message but the last stashes and the gap
//	                   fill releases the whole run
const seqWindow = 16

// seqBenchHarness builds one replicated receiver in an N-rank layout and
// returns it with its engine.
func seqBenchHarness(b *testing.B, sources int) (*Replicated, *mpi.Engine) {
	b.Helper()
	layout := Layout{N: sources, R: 1}
	nw := transport.NewNetwork(layout.Procs(), nil)
	b.Cleanup(func() { nw.Close() })
	det := detect.NewService(nw)
	proc := mpi.NewProc(nw, 0)
	p := NewReplicated(proc, layout, ModeParallel, det, Options{})
	return p, proc.Engine()
}

// seqBenchSchedule pre-builds the arrival schedule for one round: one
// message per (source, window slot), ordered round-robin across sources.
// Seq fields are restamped per round by stampRound; the structs
// themselves are reused (FreeMessage is a no-op on unpooled messages, so
// engine-side consumption never recycles them out from under the next
// round).
func seqBenchSchedule(sources int) []*transport.Message {
	ms := make([]*transport.Message, 0, sources*seqWindow)
	payload := []byte{0}
	for w := 0; w < seqWindow; w++ {
		for src := 0; src < sources; src++ {
			var meta [4]int64
			meta[mpi.MetaSrcRank] = int64(src)
			ms = append(ms, &transport.Message{
				Src: transport.ProcID(src), Kind: transport.KindEager,
				Ctx: 2, Tag: w, Meta: meta, Data: payload,
			})
		}
	}
	return ms
}

// stampRound writes the absolute sequence numbers for one round into the
// schedule. base advances by seqWindow per round so the sequencer's
// counters move forward exactly as in a live run.
func stampRound(ms []*transport.Message, sources int, base uint64, adversarial bool) {
	for i, m := range ms {
		w := uint64(i / sources)
		if adversarial {
			w = uint64(seqWindow-1) - w
		}
		m.Seq = base + w
	}
}

func benchSequencer(b *testing.B, sources int, adversarial bool, arrive func(*transport.Message) bool, eng *mpi.Engine) {
	ms := seqBenchSchedule(sources)
	b.ReportAllocs()
	b.ResetTimer()
	for round := 0; round < b.N; round++ {
		b.StopTimer()
		stampRound(ms, sources, uint64(round)*seqWindow, adversarial)
		b.StartTimer()
		for _, m := range ms {
			arrive(m)
		}
		b.StopTimer()
		if got := eng.TakeUnexpected(); len(got) != len(ms) {
			b.Fatalf("round %d: admitted %d messages, want %d", round, len(got), len(ms))
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ms)), "ns/msg")
}

func BenchmarkSequencer(b *testing.B) {
	for _, sources := range []int{64, 128, 256} {
		for _, order := range []string{"inorder", "adversarial"} {
			adversarial := order == "adversarial"
			b.Run(fmt.Sprintf("sources=%d/order=%s", sources, order), func(b *testing.B) {
				p, eng := seqBenchHarness(b, sources)
				benchSequencer(b, sources, adversarial, p.onArrive, eng)
			})
		}
	}
}
