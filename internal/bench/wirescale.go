package bench

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// Wire scaling curve (experiment wirescale): the batch-first transport
// measured at the wire level, ranks × exchange degree × message size,
// under two configurations (the per-message-write baseline they replaced
// is on record in BENCH_PR8.json and BENCH_PR10.json) —
//
//	tcp        batched loopback TCP: frames coalesce into net.Buffers
//	           vectored writes at flush points
//	ring       batched shared-memory rings: every pair is colocated (one
//	           test process IS one host), so rendezvous negotiation moves
//	           all traffic onto the mmap rings
//
// The harness is an in-process mesh of real PeerWires — n networks of
// size n, proc i live on network i, exactly the worker topology — running
// a windowed neighbor exchange: each rank sends a window of messages to
// each of its `degree` ring-successors, flushes (the engine's pre-block
// trigger), and drains its own inbound. The quantities of interest come
// from the transport's own counters: frames per flush (batching density)
// and bytes per flush (payload moved per syscall or ring push).

// WireScaleConfig is one point of the curve.
type WireScaleConfig struct {
	Ranks  int
	Degree int // ring-successor neighbors each rank sends to
	Size   int // payload bytes per message
	Window int // messages per neighbor per iteration
	Iters  int
	Mode   string // "tcp" | "ring"
}

// WireScaleRow is one measured point.
type WireScaleRow struct {
	WireScaleConfig
	Elapsed     time.Duration
	Msgs        uint64 // application messages through the wires
	Flushes     uint64 // vectored writes + ring pushes
	FlushFrames uint64 // frames those flushes carried
	BytesOut    uint64
	RingFrames  uint64 // frames that took the shared-memory path
}

// FramesPerFlush is the batching density: > 1 means the vectored write
// amortized syscalls across frames.
func (r WireScaleRow) FramesPerFlush() float64 {
	if r.Flushes == 0 {
		return 0
	}
	return float64(r.FlushFrames) / float64(r.Flushes)
}

// BytesPerFlush is payload bytes moved per flush syscall (or ring push).
func (r WireScaleRow) BytesPerFlush() float64 {
	if r.Flushes == 0 {
		return 0
	}
	return float64(r.BytesOut) / float64(r.Flushes)
}

// FlushesPerMsg is flush syscalls per application message — the quantity
// the batch-first redesign drives below 1.
func (r WireScaleRow) FlushesPerMsg() float64 {
	if r.Msgs == 0 {
		return 0
	}
	return float64(r.Flushes) / float64(r.Msgs)
}

// MsgsPerSec is wire throughput in messages per second.
func (r WireScaleRow) MsgsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Msgs) / r.Elapsed.Seconds()
}

// snapTransport reads the transport counter series the curve reports.
func snapTransport() (flushes, frames, bytesOut, ringOut float64) {
	s := obs.Default.Snapshot()
	return s["sdr_transport_flushes_total"],
		s["sdr_transport_flush_frames_total"],
		s[`sdr_transport_bytes_total{dir="out"}`],
		s[`sdr_transport_ring_frames_total{dir="out"}`]
}

// RunWireScale measures one configuration on a fresh in-process mesh.
func RunWireScale(cfg WireScaleConfig) (WireScaleRow, error) {
	n := cfg.Ranks
	if cfg.Degree < 1 || cfg.Degree >= n {
		return WireScaleRow{}, fmt.Errorf("wirescale: degree %d out of range for %d ranks", cfg.Degree, n)
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 10
	}

	// Fd preflight: the in-process mesh holds n listeners plus, in tcp
	// mode, both ends of every dialed exchange connection — at 256 ranks
	// that clears the default 1024 soft limit. Budget for the exchange
	// topology (2·degree peers per rank) with slack for stdio and the test
	// harness; failure surfaces before a half-built mesh starts timing.
	if _, err := transport.EnsureFileLimit(uint64(n + 4*n*cfg.Degree + 64)); err != nil {
		return WireScaleRow{}, err
	}

	// The mesh: one network + peer wire per proc, rendezvous done by hand.
	nws := make([]*transport.Network, n)
	pws := make([]*transport.PeerWire, n)
	defer func() {
		for i := n - 1; i >= 0; i-- {
			if pws[i] != nil {
				pws[i].Close()
			}
			if nws[i] != nil {
				nws[i].Close()
			}
		}
	}()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		nw, pw, err := transport.NewPeerNetwork(n, transport.ProcID(i), "")
		if err != nil {
			return WireScaleRow{}, err
		}
		nws[i], pws[i] = nw, pw
		addrs[i] = pw.Addr()
	}
	for i := 0; i < n; i++ {
		pws[i].SetPeers(addrs)
	}
	if cfg.Mode == "ring" {
		dir, err := os.MkdirTemp("", "sdr-wirescale-ring-*")
		if err != nil {
			return WireScaleRow{}, err
		}
		defer os.RemoveAll(dir)
		// Arm rings only for each rank's actual traffic partners (its
		// degree ring-successors and -predecessors). A real worker hosts
		// ONE wire per OS process, so eagerly attaching readers for all
		// n-1 colocated peers costs one scanner pass; this harness packs
		// all n wires into one process, where n wires × (n-1) eager
		// readers is a quadratic pile of mmaps no deployment ever pays.
		// Restricting attach to the exchange topology keeps per-wire
		// reader counts at 2·degree while every data-path byte still
		// crosses the shared-memory rings.
		for i := 0; i < n; i++ {
			colocated := make([]bool, n)
			for k := 1; k <= cfg.Degree; k++ {
				colocated[(i+k)%n] = true
				colocated[(i-k+n)%n] = true
			}
			pws[i].SetRingPeers(transport.RingConfig{Dir: dir}, colocated)
		}
	}

	flushes0, frames0, bytes0, ring0 := snapTransport()
	perRank := cfg.Window * cfg.Degree * cfg.Iters // sent == received per rank
	payload := make([]byte, cfg.Size)

	start := time.Now()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			self := transport.ProcID(i)
			ep := nws[i].Endpoint(self)
			got := 0
			for it := 0; it < cfg.Iters; it++ {
				for w := 0; w < cfg.Window; w++ {
					for k := 1; k <= cfg.Degree; k++ {
						dst := transport.ProcID((i + k) % n)
						if err := ep.Send(&transport.Message{
							Dst: dst, Kind: transport.KindEager, Tag: it, Data: payload,
						}); err != nil {
							errs[i] = err
							return
						}
					}
				}
				// The engine's pre-block trigger: staged frames go out
				// before this rank turns to its inbound side.
				if err := nws[i].FlushWire(self, true); err != nil {
					errs[i] = err
					return
				}
				for _, m := range ep.Drain() {
					transport.FreeMessage(m)
					got++
				}
			}
			deadline := time.Now().Add(2 * time.Minute)
			for got < perRank {
				if time.Now().After(deadline) {
					errs[i] = fmt.Errorf("wirescale: rank %d received %d/%d", i, got, perRank)
					return
				}
				ep.WaitActivity(5 * time.Millisecond)
				for _, m := range ep.Drain() {
					transport.FreeMessage(m)
					got++
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return WireScaleRow{}, err
		}
	}

	flushes1, frames1, bytes1, ring1 := snapTransport()
	return WireScaleRow{
		WireScaleConfig: cfg,
		Elapsed:         elapsed,
		Msgs:            uint64(n * perRank),
		Flushes:         uint64(flushes1 - flushes0),
		FlushFrames:     uint64(frames1 - frames0),
		BytesOut:        uint64(bytes1 - bytes0),
		RingFrames:      uint64(ring1 - ring0),
	}, nil
}

// WireScaleCurve runs the full ranks × degree × size sweep for the given
// modes.
func WireScaleCurve(ranks, degrees, sizes []int, modes []string, window, iters int) ([]WireScaleRow, error) {
	var rows []WireScaleRow
	for _, n := range ranks {
		for _, d := range degrees {
			if d >= n {
				continue
			}
			for _, sz := range sizes {
				for _, mode := range modes {
					row, err := RunWireScale(WireScaleConfig{
						Ranks: n, Degree: d, Size: sz, Window: window, Iters: iters, Mode: mode,
					})
					if err != nil {
						return nil, fmt.Errorf("wirescale ranks=%d degree=%d size=%d mode=%s: %w", n, d, sz, mode, err)
					}
					rows = append(rows, row)
				}
			}
		}
	}
	return rows, nil
}

// RenderWireScale prints the curve.
func RenderWireScale(w io.Writer, rows []WireScaleRow) {
	fmt.Fprintln(w, "Wire scaling — batch-first transport, windowed neighbor exchange")
	fmt.Fprintf(w, "%6s %6s %7s %10s %10s %12s %12s %12s %12s\n",
		"ranks", "degree", "size", "mode", "time (s)", "msgs", "frames/flush", "bytes/flush", "flushes/msg")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %6d %7d %10s %10.3f %12d %12.2f %12.0f %12.3f\n",
			r.Ranks, r.Degree, r.Size, r.Mode, r.Elapsed.Seconds(), r.Msgs,
			r.FramesPerFlush(), r.BytesPerFlush(), r.FlushesPerMsg())
	}
}
