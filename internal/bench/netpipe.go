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
	AppMsgs        uint64 // application messages on the wire for the run
	AckMsgs        uint64 // replication acks on the wire (0 for native)
}

// AckRatio is ack messages per application message — the protocol-traffic
// overhead the ack-coalescing fast path minimizes (0 for native).
func (p NetpipePoint) AckRatio() float64 {
	if p.AppMsgs == 0 {
		return 0
	}
	return float64(p.AckMsgs) / float64(p.AppMsgs)
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

// Netpipe runs the two-rank ping-pong sweep under the given protocol on
// the IB-20G-calibrated delay model and returns one point per size. The
// measured quantity matches the paper's Figure 7: half the round-trip time
// of an MPI_Send/MPI_Recv exchange.
func Netpipe(proto cluster.Protocol, sizes []int) ([]NetpipePoint, error) {
	var points []NetpipePoint
	for _, size := range sizes {
		iters := netpipeIters(size)
		f := netpipeDilation(size)
		elapsed, _, rep, err := timedRun(cluster.Config{
			Ranks: 2, Protocol: proto, Delay: dilated(f), Timeout: 10 * time.Minute,
		}, 1, pingPong(size, iters))
		if err != nil {
			return nil, fmt.Errorf("netpipe %s size %d: %w", proto, size, err)
		}
		oneWay := elapsed.Seconds() / float64(2*iters) / f
		points = append(points, NetpipePoint{
			Bytes:          size,
			LatencyUS:      oneWay * 1e6,
			ThroughputMbps: float64(size) * 8 / oneWay / 1e6,
			AppMsgs:        rep.Stats.AppMsgs(),
			AckMsgs:        rep.Stats.AckMsgs(),
		})
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

// NetpipeComparison pairs native and SDR sweeps with the relative
// performance decrease, the quantity on Figure 7's right-hand axis.
type NetpipeComparison struct {
	Native []NetpipePoint
	SDR    []NetpipePoint
}

// RunNetpipe performs both sweeps.
func RunNetpipe(sizes []int) (*NetpipeComparison, error) {
	native, err := Netpipe(cluster.Native, sizes)
	if err != nil {
		return nil, fmt.Errorf("native sweep: %w", err)
	}
	sdr, err := Netpipe(cluster.SDR, sizes)
	if err != nil {
		return nil, fmt.Errorf("sdr sweep: %w", err)
	}
	return &NetpipeComparison{Native: native, SDR: sdr}, nil
}

// LatencyDecreasePct returns SDR's latency increase at point i, as a
// percentage of native latency.
func (nc *NetpipeComparison) LatencyDecreasePct(i int) float64 {
	return (nc.SDR[i].LatencyUS - nc.Native[i].LatencyUS) / nc.Native[i].LatencyUS * 100
}

// ThroughputDecreasePct returns SDR's throughput loss at point i, as a
// percentage of native throughput.
func (nc *NetpipeComparison) ThroughputDecreasePct(i int) float64 {
	return (nc.Native[i].ThroughputMbps - nc.SDR[i].ThroughputMbps) / nc.Native[i].ThroughputMbps * 100
}

// RenderFig7a writes the latency figure as a table (the paper's Figure 7a
// series: Open MPI, SDR-MPI, performance decrease), plus the SDR run's
// ack-per-application-message ratio the coalescing fast path targets.
func (nc *NetpipeComparison) RenderFig7a(w io.Writer) {
	fmt.Fprintln(w, "Figure 7a — NetPipe latency, IB-20G model (one-way, usec)")
	fmt.Fprintf(w, "%12s %14s %14s %12s %10s\n", "bytes", "native", "SDR-MPI", "decrease(%)", "acks/app")
	for i, p := range nc.Native {
		fmt.Fprintf(w, "%12d %14.2f %14.2f %12.1f %10.3f\n",
			p.Bytes, p.LatencyUS, nc.SDR[i].LatencyUS, nc.LatencyDecreasePct(i),
			nc.SDR[i].AckRatio())
	}
}

// RenderFig7b writes the throughput figure.
func (nc *NetpipeComparison) RenderFig7b(w io.Writer) {
	fmt.Fprintln(w, "Figure 7b — NetPipe throughput, IB-20G model (Mbps)")
	fmt.Fprintf(w, "%12s %14s %14s %12s\n", "bytes", "native", "SDR-MPI", "decrease(%)")
	for i, p := range nc.Native {
		fmt.Fprintf(w, "%12d %14.1f %14.1f %12.1f\n",
			p.Bytes, p.ThroughputMbps, nc.SDR[i].ThroughputMbps, nc.ThroughputDecreasePct(i))
	}
}
