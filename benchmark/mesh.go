package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"syscall"
	"time"

	"repro/internal/transport"
)

// mesh is wire-ring-128: the transport alone. n PeerWires in one process —
// n networks of size n, proc i live on network i, the distributed worker
// topology — with every exchanging pair on an mmap ring, run a windowed
// neighbour exchange: each rank sends a window of messages to each of its
// ring successors, flushes, and waits for the same window from each of its
// predecessors before the next iteration (closed loop). The mesh is built
// in set-up and reused by every repetition, so the rate is steady-state
// ring push and scan cost; building it and its first exchange are timed
// apart. The result is checked against what the payloads add up to.
type mesh struct {
	n, iters int
	workDir  string

	payloads [][]byte // one per rank
	want     []uint64 // per rank: checksum one iteration's arrivals add up to

	rings *meshNet

	// One entry per set-up: the mesh is built meshSetups times (the last
	// one kept) and the first repetitions report one set-up each, so
	// setup_s is the median of several set-ups, as on every workload.
	setups    []meshSetup
	buildHeap float64 // median bytes one set-up allocated
	reps      int
}

// meshSetup is what one mesh build and its first exchange cost.
type meshSetup struct {
	buildS, firstS float64
	heap           heapSample
}

const (
	meshDegree      = 2
	meshWindow      = 8
	meshPayload     = 64
	meshSetups      = 3 // the mesh is built this many times; setup_s is their median
	meshTracedEvery = 8 // leaf spans are recorded on every 8th rank
)

// meshNet is the ring mesh: rank i lives on network i, behind wire i.
type meshNet struct {
	nws []*transport.Network
	pws []*transport.PeerWire
	dir string
}

func (mn *meshNet) close() {
	for i := len(mn.pws) - 1; i >= 0; i-- {
		mn.pws[i].Close()
		mn.nws[i].Close()
	}
	if mn.dir != "" {
		os.RemoveAll(mn.dir)
	}
}

func prepareMesh(n, iters int) prepareFunc {
	return func(seed int64, workDir string) (runner, error) {
		m := &mesh{n: n, iters: iters, workDir: workDir}
		rng := rand.New(rand.NewSource(seed))
		m.payloads = make([][]byte, n)
		for i := range m.payloads {
			m.payloads[i] = make([]byte, meshPayload)
			rng.Read(m.payloads[i])
		}
		m.want = make([]uint64, n)
		for i := range m.want {
			for k := 1; k <= meshDegree; k++ {
				m.want[i] += meshWindow * wordSum(m.payloads[(i-k+n)%n])
			}
		}
		// n listeners plus ring files and stdio; dials are not needed on
		// ring pairs but leave room for them.
		if _, err := transport.EnsureFileLimit(uint64(n + 4*n*meshDegree + 64)); err != nil {
			return nil, err
		}
		for s := 0; s < meshSetups; s++ {
			if m.rings != nil {
				m.rings.close()
				m.rings = nil
			}
			// Creating and deleting 512 ring files leaves the filesystem's
			// journal busy, and the next build pays for it: back to back,
			// builds take from 0.15 to 0.6 s. Let it settle before timing one.
			syscall.Sync()
			heap0 := sampleHeap()
			t0 := time.Now()
			rings, err := m.build(s)
			if err != nil {
				m.close()
				return nil, err
			}
			m.rings = rings
			t1 := time.Now()
			// The first exchange touches every ring's pages and starts
			// every scanner; it is part of set-up, not of the rate.
			if _, err := m.exchange(1, nil); err != nil {
				m.close()
				return nil, fmt.Errorf("first exchange: %w", err)
			}
			t2 := time.Now()
			m.setups = append(m.setups, meshSetup{
				buildS: t1.Sub(t0).Seconds(), firstS: t2.Sub(t1).Seconds(), heap: sampleHeap().since(heap0)})
		}
		var heaps []float64
		for _, su := range m.setups {
			heaps = append(heaps, float64(su.heap.bytes))
		}
		m.buildHeap = median(heaps)
		return m, nil
	}
}

// build makes the ring mesh: one network and peer wire per rank, address
// table exchanged by hand, rings armed only for each rank's exchange
// partners (a worker hosts one wire per OS process; arming all n−1 peers
// on n wires in one process is a quadratic pile of mappings no deployment
// pays).
func (m *mesh) build(sample int) (*meshNet, error) {
	n := m.n
	mn := &meshNet{}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		nw, pw, err := transport.NewPeerNetwork(n, transport.ProcID(i), "")
		if err != nil {
			mn.close()
			return nil, err
		}
		mn.nws = append(mn.nws, nw)
		mn.pws = append(mn.pws, pw)
		addrs[i] = pw.Addr()
	}
	for _, pw := range mn.pws {
		pw.SetPeers(addrs)
	}
	dir, err := os.MkdirTemp(m.workDir, fmt.Sprintf("ring-%d-*", sample))
	if err != nil {
		mn.close()
		return nil, err
	}
	mn.dir = dir
	for i, pw := range mn.pws {
		colocated := make([]bool, n)
		for k := 1; k <= meshDegree; k++ {
			colocated[(i+k)%n] = true
			colocated[(i-k+n)%n] = true
		}
		pw.SetRingPeers(transport.RingConfig{Dir: dir}, colocated)
	}
	return mn, nil
}

func (m *mesh) counts() map[string]int {
	return map[string]int{"ranks": m.n, "iters_per_rep": m.iters, "degree": meshDegree,
		"window": meshWindow, "payload_B": meshPayload, "mesh_builds": meshSetups}
}

func (m *mesh) close() {
	if m.rings != nil {
		m.rings.close()
		m.rings = nil
	}
}

// wordSum adds up a payload's 64-bit words.
func wordSum(b []byte) uint64 {
	var s uint64
	for ; len(b) >= 8; b = b[8:] {
		s += binary.LittleEndian.Uint64(b)
	}
	return s
}

// exchangeOut is what one exchange measured.
type exchangeOut struct {
	reg  region
	heap heapSample
	sums []uint64 // per rank: checksum of everything received
	got  []int    // per rank: messages received
}

// exchange runs iters iterations over the ring mesh. The benchmark owns these
// goroutines, so the region is sampled here, around them.
func (m *mesh) exchange(iters int, root *rootSpan) (*exchangeOut, error) {
	mn := m.rings
	n := m.n
	perIter := meshWindow * meshDegree
	ex := &exchangeOut{sums: make([]uint64, n), got: make([]int, n)}
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			var pt *procTrace
			if root != nil {
				pt = root.proc(i, 0)
				defer pt.close()
			}
			leaves := pt != nil && i%meshTracedEvery == 0
			self := transport.ProcID(i)
			nw := mn.nws[i]
			ep := nw.Endpoint(self)
			payload := m.payloads[i]
			got, sum := 0, uint64(0)
			deadline := time.Now().Add(time.Minute)
			for it := 0; it < iters; it++ {
				for w := 0; w < meshWindow; w++ {
					for k := 1; k <= meshDegree; k++ {
						msg := transport.Message{Dst: transport.ProcID((i + k) % n), Kind: transport.KindEager, Tag: it, Data: payload}
						var t0 int64
						if leaves {
							t0 = pt.begin()
						}
						err := ep.Send(&msg)
						if leaves {
							pt.leaf(spanEpSend, t0)
						}
						if err != nil {
							errs[i] = err
							return
						}
					}
				}
				var t0 int64
				if leaves {
					t0 = pt.begin()
				}
				err := nw.FlushWire(self, true)
				if leaves {
					pt.leaf(spanEpFlush, t0)
				}
				if err != nil {
					errs[i] = err
					return
				}
				for want := (it + 1) * perIter; ; {
					if leaves {
						t0 = pt.begin()
					}
					msgs := ep.Drain()
					for _, q := range msgs {
						sum += wordSum(q.Data)
						transport.FreeMessage(q)
					}
					got += len(msgs)
					if leaves {
						pt.leaf(spanEpDrain, t0)
					}
					if got >= want {
						break
					}
					if time.Now().After(deadline) {
						errs[i] = fmt.Errorf("rank %d received %d of %d messages", i, got, want)
						return
					}
					if leaves {
						t0 = pt.begin()
					}
					ep.WaitActivity(5 * time.Millisecond)
					if leaves {
						pt.leaf(spanEpWait, t0)
					}
				}
			}
			ex.sums[i], ex.got[i] = sum, got
		}(i)
	}
	heap0 := sampleHeap()
	ex.reg.begin()
	close(start)
	wg.Wait()
	ex.reg.end()
	ex.heap = sampleHeap().since(heap0)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ex, nil
}

// failedMsgs counts the messages of an exchange that did not arrive
// intact: a rank whose checksum is off fails its whole share.
func (m *mesh) failedMsgs(ex *exchangeOut, iters int) int {
	perRank := iters * meshWindow * meshDegree
	failed := 0
	for i := range ex.sums {
		if ex.got[i] != perRank || ex.sums[i] != uint64(iters)*m.want[i] {
			failed += perRank
		}
	}
	return failed
}

func (m *mesh) rep(rec *recorder) repOut {
	out := newRepOut()
	perRank := m.iters * meshWindow * meshDegree
	out.attempted = m.n * perRank // every message

	before := snapCounters()
	stats0 := m.rings.stats()
	root := rec.root(spanMesh, "ring")
	ring, err := m.exchange(m.iters, root)
	root.end()
	delta := counterDelta{before, snapCounters()}
	stats1 := m.rings.stats()
	if err != nil {
		out.errorf("ring exchange: %v", err)
		out.failed = out.attempted
		return out
	}
	// Correctness: every rank received every message and its checksum is
	// the one the payloads add up to.
	out.failed = m.failedMsgs(ring, m.iters)

	// The warm-up repetition is call 0; timed repetition k reports set-up k.
	if k := m.reps - 1; k >= 0 && k < len(m.setups) {
		su := m.setups[k]
		out.set("setup_s", su.buildS+su.firstS)
		out.set("transport.mesh_build_s", su.buildS)
		out.set("transport.first_exchange_s", su.firstS)
	}
	m.reps++
	// Set-up is included in the allocation, as on every workload: the
	// rings themselves move a message without allocating, and what a mesh
	// costs to build is the memory a later change could quietly move into
	// set-up.
	out.setTimings(timings{wall: ring.reg.wall(), cpu: ring.reg.cpu(),
		heapBytes: m.buildHeap + float64(ring.heap.bytes), msgs: float64(m.n * perRank)})

	out.set("transport.app_msgs", float64(stats1.AppMsgs()-stats0.AppMsgs()))
	out.set("transport.ack_msgs", float64(stats1.AckMsgs()-stats0.AckMsgs()))
	delta.layerCounts(&out)

	if rec != nil {
		st := out.takeSpans(rec)
		d := st.durs["ring"]
		out.set("transport.send_ns_p50", median(d[spanEpSend]))
		out.set("transport.flush_us_p50", p50us(d[spanEpFlush]))
		tracedRanks := (m.n + meshTracedEvery - 1) / meshTracedEvery
		out.set("transport.drain_ns_per_msg", sum(d[spanEpDrain])/float64(tracedRanks*perRank))
		// Time the traced ranks spent parked in WaitActivity, over the
		// time they spent in the exchange at all.
		var appNs float64
		for _, s := range out.spans {
			if s.Kind == spanApp && out.labels[s.Run] == "ring" && int(s.Rank)%meshTracedEvery == 0 {
				appNs += float64(s.dur())
			}
		}
		if appNs > 0 {
			out.set("transport.wait_share", sum(d[spanEpWait])/appNs)
		}
	}
	return out
}

// stats adds up the mesh's per-network traffic counters.
func (mn *meshNet) stats() transport.StatsSnapshot {
	var total transport.StatsSnapshot
	for _, nw := range mn.nws {
		s := nw.Stats().Snapshot()
		for k := range total.Msgs {
			total.Msgs[k] += s.Msgs[k]
			total.Bytes[k] += s.Bytes[k]
		}
	}
	return total
}
