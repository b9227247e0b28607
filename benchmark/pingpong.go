package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"time"

	"repro/internal/cluster"
)

// pingpong is the two NetPipe workloads: two ranks bounce one payload,
// under SDR with two replicas per rank and then under Native. pingpong-64B
// keeps the payload in the eager path of the in-process wire, where the
// per-message protocol work is all there is; stream-256K-tcp pushes a
// rendezvous-sized payload through loopback TCP, where bytes dominate.
type pingpong struct {
	size       int
	useTCP     bool
	roundTrips int
	warmTrips  int
	payload    []byte
}

func preparePingpong(size int, useTCP bool, roundTrips, warm int) prepareFunc {
	return func(seed int64, _ string) (runner, error) {
		p := &pingpong{size: size, useTCP: useTCP, roundTrips: roundTrips, warmTrips: warm}
		p.payload = make([]byte, size)
		rand.New(rand.NewSource(seed)).Read(p.payload)
		return p, nil
	}
}

func (p *pingpong) counts() map[string]int {
	return map[string]int{"round_trips_per_rep": p.roundTrips, "warm_round_trips": p.warmTrips, "payload_B": p.size}
}

func (p *pingpong) close() {}

// ppResult is what rank 0 returns: how many echoes came back intact and a
// digest of their headers, equal across protocols when all did.
type ppResult struct {
	good   int
	digest uint64
}

// ppShared is what rank 0 replica 0 leaves behind for the benchmark.
type ppShared struct {
	rtt []int64 // ns per round trip
}

// app bounces the payload. The first word of each message carries the
// round-trip index, so a stale or reordered echo cannot pass; the header is
// checked on every round trip and the whole payload on every 64th, which
// keeps the check below a percent of the 256 KiB round trip.
func (p *pingpong) app(sh *ppShared) appFunc {
	return func(env *cluster.Env, m *runMeter, pt *procTrace) (any, error) {
		c := tcomm{env.World, pt}
		me := int(env.World.Rank())
		sbuf := append([]byte(nil), p.payload...)
		rbuf := make([]byte, p.size)
		bounce := func(i int) bool {
			if me == 0 {
				binary.LittleEndian.PutUint64(sbuf, uint64(i))
				c.Send(1, 0, sbuf)
				c.Recv(1, 0, rbuf)
				if binary.LittleEndian.Uint64(rbuf) != uint64(i) {
					return false
				}
				return i%64 != 0 || bytes.Equal(sbuf, rbuf)
			}
			c.Recv(0, 0, rbuf)
			c.Send(0, 0, rbuf)
			return true
		}
		for i := 0; i < p.warmTrips; i++ {
			bounce(i)
		}
		var res ppResult
		sample := me == 0 && env.Rep == 0
		if sample {
			sh.rtt = make([]int64, 0, p.roundTrips)
		}
		env.World.Barrier()
		m.region.begin()
		prev := time.Now()
		for i := 0; i < p.roundTrips; i++ {
			if bounce(i) {
				res.good++
				res.digest = res.digest*1099511628211 + binary.LittleEndian.Uint64(rbuf)
			}
			if sample {
				now := time.Now()
				sh.rtt = append(sh.rtt, int64(now.Sub(prev)))
				prev = now
			}
		}
		env.World.Barrier()
		m.region.end()
		return res, nil
	}
}

func (p *pingpong) rep(rec *recorder) repOut {
	out := newRepOut()
	out.attempted = 2 * p.roundTrips // every round trip, under both protocols
	cfg := cluster.Config{Ranks: 2, Replication: 2, UseTCP: p.useTCP, Timeout: 2 * time.Minute}
	var sdrSh, natSh ppShared
	sdr, nat, delta := launchPair(cfg, rec, p.app(&sdrSh), p.app(&natSh))
	if out.failRuns(sdr, nat) {
		return out
	}
	// Correctness: every echo intact on every replica of rank 0, and the
	// header digest equal to the Native reference's.
	ref, _ := nat.rep.ResultOf(0, 0).(ppResult)
	out.failed += p.roundTrips - ref.good
	worst := 0
	for rep := 0; rep < 2; rep++ {
		got, _ := sdr.rep.ResultOf(0, rep).(ppResult)
		bad := p.roundTrips - got.good
		if got.digest != ref.digest {
			bad = p.roundTrips
		}
		worst = max(worst, bad)
	}
	out.failed += worst

	msgs := float64(2 * p.roundTrips)
	wall := sdr.meter.region.wall()
	out.set("setup_s", sdr.untimedS()+nat.untimedS())
	out.setTimings(timings{wall: wall, cpu: sdr.meter.region.cpu(), heapBytes: float64(sdr.heap.bytes), msgs: msgs})
	out.set("native_wall_s", nat.meter.region.wall())
	out.set("payload_MB_per_s", msgs*float64(p.size)/wall/1e6)
	q := quantilesUs(sdrSh.rtt, 0.5, 0.9, 0.99, 0.999)
	out.set("rtt_p50_us", q[0])
	out.set("rtt_p90_us", q[1])
	out.set("core.rtt_p99_us", q[2])
	out.set("core.rtt_p99.9_us", q[3])
	out.set("native_rtt_p50_us", quantilesUs(natSh.rtt, 0.5)[0])
	out.setClusterLayer(sdr, nat, msgs, delta)

	if rec != nil {
		st := out.takeSpans(rec)
		ns, nr := p50us(st.durs["native"][spanSend]), p50us(st.durs["native"][spanRecv])
		out.set("mpi.send_us_p50", ns)
		out.set("mpi.recv_us_p50", nr)
		out.set("core.send_extra_us_p50", p50us(st.durs["sdr"][spanSend])-ns)
		out.set("core.recv_extra_us_p50", p50us(st.durs["sdr"][spanRecv])-nr)
	}
	return out
}
