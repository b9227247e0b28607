// Package bench regenerates the paper's evaluation artifacts: the NetPipe
// latency/throughput figures (7a, 7b), the NAS and wildcard-application
// overhead tables (1, 2), the anonymous-reception micro-benchmark
// (Figure 2), and the ablation comparisons (mirror vs parallel message
// complexity, leader vs leaderless ANY_SOURCE).
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// NetpipePoint is one message-size sample of the ping-pong sweep.
type NetpipePoint struct {
	Bytes          int
	LatencyUS      float64 // one-way latency, microseconds (half RTT)
	ThroughputMbps float64
	AckRatio       float64 // acks per application message (0 for native)
}

// NetpipeSizes returns the sweep over the range the paper plots (up to
// 8 MiB) in powers of four: 1 B … 4 MiB.
func NetpipeSizes() []int {
	var sizes []int
	for s := 1; s <= 8<<20; s *= 4 {
		sizes = append(sizes, s)
	}
	return sizes
}

// netpipeIters picks the repetition count per size (more for small
// messages, as NetPipe does).
func netpipeIters(size int) int {
	switch {
	case size <= 1024:
		return 40
	case size <= 64<<10:
		return 16
	case size <= 1<<20:
		return 6
	default:
		return 3
	}
}

// netpipeDilation returns the time-dilation factor applied to the delay
// model for one message size. The simulation measures real elapsed time,
// and on a machine with few cores the goroutine-scheduling cost of each
// message event (~microseconds) would swamp the microsecond-scale wire
// latencies being modelled. Dilating the model uniformly — latency,
// bandwidth and CPU overhead together — slows the simulated network so
// scheduling noise becomes negligible, and the measurement is divided back
// by the factor. Large messages are transfer-dominated (milliseconds) and
// need little dilation.
func netpipeDilation(size int) float64 {
	switch {
	case size <= 4096:
		return 60
	case size <= 64<<10:
		return 25
	case size <= 1<<20:
		return 16
	default:
		// Rendezvous sizes: keep the simulated wire time well above the
		// host's real memcpy cost per transfer, so buffer copies do not
		// pollute the ack-gated critical path.
		return 32
	}
}

// dilated scales every time constant of the IB-20G model by f.
func dilated(f float64) *transport.DelayModel {
	d := transport.IB20G()
	return &transport.DelayModel{
		Latency:      time.Duration(float64(d.Latency) * f),
		BytesPerSec:  d.BytesPerSec / f,
		SendOverhead: time.Duration(float64(d.SendOverhead) * f),
	}
}

// netpipe runs the two-rank ping-pong sweep under the given protocol on
// the IB-20G-calibrated delay model and returns one point per size. The
// measured quantity matches the paper's Figure 7: half the round-trip time
// of an MPI_Send/MPI_Recv exchange.
func netpipe(proto cluster.Protocol, sizes []int) ([]NetpipePoint, error) {
	var pts []point
	for _, size := range sizes {
		pts = append(pts, point{label: fmt.Sprint(size), cfg: cluster.Config{
			Ranks: 2, Protocol: proto, Delay: dilated(netpipeDilation(size)), Timeout: 10 * time.Minute,
		}, body: pingPong(size, netpipeIters(size))})
	}
	rows, err := sweep("netpipe "+string(proto), 1, pts)
	if err != nil {
		return nil, err
	}
	points := make([]NetpipePoint, len(rows))
	for i, r := range rows {
		size := sizes[i]
		oneWay := r.Elapsed.Seconds() / float64(2*netpipeIters(size)) / netpipeDilation(size)
		points[i] = NetpipePoint{
			Bytes:          size,
			LatencyUS:      oneWay * 1e6,
			ThroughputMbps: float64(size) * 8 / oneWay / 1e6,
			AckRatio:       r.AckRatio(),
		}
	}
	return points, nil
}

// pingPong is the timed body of Figure 7 and the eager ablation: rounds
// round trips of size bytes between ranks 0 and 1.
func pingPong(size, rounds int) func(c *mpi.Comm) float64 {
	return func(c *mpi.Comm) float64 {
		buf := make([]byte, size)
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, buf)
				c.Recv(1, 1, buf)
			} else {
				c.Recv(0, 0, buf)
				c.Send(0, 1, buf)
			}
		}
		return 0
	}
}

// NetpipeComparison pairs the native and SDR sweeps: Figure 7's two
// series, and the relative performance decrease on its right-hand axis.
type NetpipeComparison struct {
	Native []NetpipePoint
	SDR    []NetpipePoint
}

// RunNetpipe performs both sweeps.
func RunNetpipe(sizes []int) (*NetpipeComparison, error) {
	native, err := netpipe(cluster.Native, sizes)
	if err != nil {
		return nil, err
	}
	sdr, err := netpipe(cluster.SDR, sizes)
	if err != nil {
		return nil, err
	}
	return &NetpipeComparison{Native: native, SDR: sdr}, nil
}

// RenderFig7a writes the latency figure as a table (the paper's Figure 7a
// series: Open MPI, SDR-MPI, and SDR's latency increase in percent of
// native's), plus the SDR run's ack-per-application-message ratio the
// coalescing fast path targets.
func (nc *NetpipeComparison) RenderFig7a(w io.Writer) {
	fmt.Fprintln(w, "Figure 7a — NetPipe latency, IB-20G model (one-way, usec)")
	fmt.Fprintf(w, "%12s %14s %14s %12s %10s\n", "bytes", "native", "SDR-MPI", "decrease(%)", "acks/app")
	for i, p := range nc.Native {
		s := nc.SDR[i]
		fmt.Fprintf(w, "%12d %14.2f %14.2f %12.1f %10.3f\n",
			p.Bytes, p.LatencyUS, s.LatencyUS, (s.LatencyUS-p.LatencyUS)/p.LatencyUS*100, s.AckRatio)
	}
}

// RenderFig7b writes the throughput figure: both series and SDR's
// throughput loss in percent of native's.
func (nc *NetpipeComparison) RenderFig7b(w io.Writer) {
	fmt.Fprintln(w, "Figure 7b — NetPipe throughput, IB-20G model (Mbps)")
	fmt.Fprintf(w, "%12s %14s %14s %12s\n", "bytes", "native", "SDR-MPI", "decrease(%)")
	for i, p := range nc.Native {
		s := nc.SDR[i]
		fmt.Fprintf(w, "%12d %14.1f %14.1f %12.1f\n",
			p.Bytes, p.ThroughputMbps, s.ThroughputMbps, (p.ThroughputMbps-s.ThroughputMbps)/p.ThroughputMbps*100)
	}
}
