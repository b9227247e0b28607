package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
)

// Rendezvous over both wires. Before PR 19 only the benchmark drove a
// rendezvous payload through a socket; TestRendezvous* in mpi and
// TestFailureWithRendezvousMessages run on the in-process wire.

// landedFrames reads the transport's landed-frames counter.
func landedFrames() uint64 {
	return uint64(obs.Default.Snapshot()["sdr_transport_landed_frames_total"])
}

func rendezvousPayload(n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(b)
	return b
}

func TestRendezvousOverBothWires(t *testing.T) {
	// Rank 0 sends a rendezvous-sized payload, rank 1 checks it byte for
	// byte and sends it back. Over loopback sockets every data frame lands
	// in the posted receive buffer; on the in-process wire none does.
	sizes := []int{64<<10 + 1, 256 << 10, 1<<20 + 3}
	for _, useTCP := range []bool{false, true} {
		for _, proto := range []Protocol{Native, SDR, Mirror} {
			for _, size := range sizes {
				t.Run(fmt.Sprintf("tcp=%v/%s/%d", useTCP, proto, size), func(t *testing.T) {
					payload := rendezvousPayload(size)
					app := func(env *Env) (any, error) {
						c := env.World
						buf := make([]byte, size)
						if c.Rank() == 0 {
							c.Send(1, 0, payload)
							if st := c.Recv(1, 1, buf); st.Count != size {
								return nil, fmt.Errorf("echo count %d, want %d", st.Count, size)
							}
						} else {
							if st := c.Recv(0, 0, buf); st.Count != size {
								return nil, fmt.Errorf("count %d, want %d", st.Count, size)
							}
							c.Send(0, 1, buf)
						}
						return bytes.Equal(buf, payload), nil
					}
					before := landedFrames()
					rep := Run(Config{Ranks: 2, Replication: 2, Protocol: proto, UseTCP: useTCP, Timeout: 30 * time.Second}, app)
					if err := rep.FirstError(); err != nil {
						t.Fatal(err)
					}
					for _, p := range rep.Procs {
						if p.Result != true {
							t.Errorf("rank %d rep %d: payload corrupted", p.Rank, p.Rep)
						}
					}
					landed, data := landedFrames()-before, rep.Stats.Msgs[transport.KindData]
					switch {
					case !useTCP && landed != 0:
						t.Errorf("%d frames landed on the in-process wire", landed)
					case useTCP && proto != Mirror && landed != data:
						t.Errorf("%d of %d data frames landed", landed, data)
					case useTCP && (landed == 0 || landed > data):
						// Mirror's redundant copies race: one that arrives
						// after its exchange was rebound comes in pooled and
						// is dropped, so not every frame lands — but every
						// receive is fed by one that did.
						t.Errorf("%d of %d data frames landed", landed, data)
					}
				})
			}
		}
	}
}

func TestRendezvousRebindAfterSenderKilledBeforePayload(t *testing.T) {
	// World 1's sender dies between the receiver's CTS and the payload: the
	// receiver has matched the RTS and posted its buffer for the dead
	// sender's exchange. The substitute's duplicate RTS must rebind the
	// receive — and move the landing buffer to the new exchange — and the
	// receive completes with the right bytes. The receiver signals the
	// match out of band, so the kill falls exactly in the window.
	const size = 300 << 10
	payload := rendezvousPayload(size)
	for _, useTCP := range []bool{false, true} {
		t.Run(fmt.Sprintf("tcp=%v", useTCP), func(t *testing.T) {
			matched := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
			app := func(env *Env) (any, error) {
				c := env.World
				if c.Rank() == 1 {
					r := c.Isend(0, 7, payload)
					<-matched[env.Rep] // the receiver has cleared this RTS to send
					env.Step(0, nil)   // world 1's sender dies here, CTS unanswered
					r.Wait()
					return true, nil
				}
				buf := make([]byte, size)
				c.Probe(1, 7)
				req := c.Irecv(1, 7, buf)
				close(matched[env.Rep])
				if st := req.Wait(); st.Count != size {
					return nil, fmt.Errorf("count %d, want %d", st.Count, size)
				}
				return bytes.Equal(buf, payload), nil
			}
			before := landedFrames()
			rep := Run(Config{
				Ranks: 2, Replication: 2, Protocol: SDR, UseTCP: useTCP, Timeout: 30 * time.Second,
				Failures: []FailureEvent{{Rank: 1, Rep: 1, AtStep: 0}},
			}, app)
			if err := rep.FirstError(); err != nil {
				t.Fatal(err)
			}
			for _, p := range rep.Procs {
				if p.Crashed != (p.Rank == 1 && p.Rep == 1) {
					t.Errorf("rank %d rep %d: crashed=%v", p.Rank, p.Rep, p.Crashed)
				}
				if !p.Crashed && p.Result != true {
					t.Errorf("rank %d rep %d: result %v", p.Rank, p.Rep, p.Result)
				}
			}
			// Two payloads crossed the wire, both from the surviving sender:
			// its own world's and the re-send into the rebound receive.
			landed, data := landedFrames()-before, rep.Stats.Msgs[transport.KindData]
			if want := map[bool]uint64{false: 0, true: 2}[useTCP]; data != 2 || landed != want {
				t.Errorf("%d data frames, %d landed; want 2 and %d", data, landed, want)
			}
		})
	}
}

func TestRendezvousSenderKilledRightAfterIsend(t *testing.T) {
	// No out-of-band help this time: world 1's sender dies the moment its
	// RTS is out, so at the receiver the dead sender's RTS and the
	// substitute's duplicate race — and arrive in either order (different
	// channels; the inbound queue drains by source, not by arrival). When
	// the substitute's comes first and is matched, the late RTS of the dead
	// process must not rebind the receive away from it: that hung one run
	// in three on the in-process wire, and every run over sockets.
	const size = 100 << 10
	payload := rendezvousPayload(size)
	app := func(env *Env) (any, error) {
		c := env.World
		if c.Rank() == 1 {
			r := c.Isend(0, 7, payload)
			env.Step(0, nil)
			r.Wait()
			return true, nil
		}
		buf := make([]byte, size)
		c.Recv(1, 7, buf)
		return bytes.Equal(buf, payload), nil
	}
	for _, useTCP := range []bool{false, true} {
		t.Run(fmt.Sprintf("tcp=%v", useTCP), func(t *testing.T) {
			for i := 0; i < 20; i++ {
				rep := Run(Config{
					Ranks: 2, Replication: 2, Protocol: SDR, UseTCP: useTCP, Timeout: 20 * time.Second,
					Failures: []FailureEvent{{Rank: 1, Rep: 1, AtStep: 0}},
				}, app)
				if err := rep.FirstError(); err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				for _, p := range rep.Procs {
					if !p.Crashed && p.Result != true {
						t.Fatalf("run %d: rank %d rep %d: result %v", i, p.Rank, p.Rep, p.Result)
					}
				}
			}
		})
	}
}
