package transport

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestPeerNetworkFootprintIsHostedOnly(t *testing.T) {
	// A worker's network hosts one process of the world: only that endpoint
	// gets a world-sized inbound queue. Every endpoint at 64 shards made a
	// 1024-process worker network about 4.5 MB.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	nw, pw, err := NewPeerNetwork(1024, 7, "")
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	defer pw.Close()
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= 1<<20 {
		t.Fatalf("NewPeerNetwork(1024) allocated %d bytes, want < 1 MiB", got)
	}
	for p := 0; p < nw.Size(); p++ {
		want := 1
		if p == 7 {
			want = maxQueueShards
		}
		if got := len(nw.Endpoint(ProcID(p)).shards); got != want {
			t.Fatalf("endpoint %d has %d shards, want %d", p, got, want)
		}
	}
	full := NewNetwork(64, nil)
	for p := 0; p < full.Size(); p++ {
		if got := len(full.Endpoint(ProcID(p)).shards); got != 64 {
			t.Fatalf("NewNetwork(64) endpoint %d has %d shards, want 64", p, got)
		}
	}
}

func TestUnhostedEndpointKeepsSemantics(t *testing.T) {
	// A one-shard endpoint is the same Endpoint: FIFO injection, fail-stop
	// Kill, a Revive that starts from an empty queue, and liveness.
	nw, pw, err := NewPeerNetwork(16, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	defer pw.Close()
	const p = 9
	ep := nw.Endpoint(p)
	if len(ep.shards) != 1 {
		t.Fatalf("unhosted endpoint has %d shards, want 1", len(ep.shards))
	}
	inject := func(src ProcID, tag int) {
		m := GetMessage()
		m.Src, m.Kind, m.Tag = src, KindEager, tag
		nw.Inject(p, m)
	}
	drainTags := func() []int {
		var tags []int
		for _, m := range ep.Drain() {
			tags = append(tags, m.Tag)
			FreeMessage(m)
		}
		return tags
	}
	for i, src := range []ProcID{12, 0, 5, NoProc, 12} {
		inject(src, i)
	}
	if got := fmt.Sprint(drainTags()); got != "[0 1 2 3 4]" {
		t.Fatalf("drained tags %s, want [0 1 2 3 4]", got)
	}

	inject(1, 10) // in flight when the process dies: stays queued
	nw.Kill(p)
	if nw.Alive(p) || !ep.Crashed() {
		t.Fatal("Kill left the unhosted endpoint alive")
	}
	inject(1, 11) // after the kill: falls off the wire
	if ep.ready.Load() != 1 {
		t.Fatalf("ready mask %b after the kill, want the pre-kill arrival only", ep.ready.Load())
	}
	nw.Revive(p)
	if !nw.Alive(p) || ep.Crashed() {
		t.Fatal("Revive left the unhosted endpoint dead")
	}
	if got := drainTags(); len(got) != 0 {
		t.Fatalf("revived endpoint still holds %v", got)
	}
	inject(2, 12)
	if got := fmt.Sprint(drainTags()); got != "[12]" {
		t.Fatalf("revived endpoint drained %s, want [12]", got)
	}
	if !ep.WaitActivity(time.Millisecond) {
		t.Fatal("timed wait on a live unhosted endpoint reported a kill")
	}
}

func TestQueueShardsGaugeFollowsHostedEndpoints(t *testing.T) {
	// The gauge reports the hosted endpoints' sizing, set once per network;
	// the one-shard endpoints of a worker's network do not overwrite it.
	nw, pw, err := NewPeerNetwork(128, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	defer pw.Close()
	if got := gQueueShards.Value(); got != 64 {
		t.Fatalf("sdr_transport_queue_shards = %d after NewPeerNetwork(128), want 64", got)
	}
	NewNetwork(8, nil)
	if got := gQueueShards.Value(); got != 8 {
		t.Fatalf("sdr_transport_queue_shards = %d after NewNetwork(8), want 8", got)
	}
}

// BenchmarkPeerNetworkBuild is one distributed worker's network and wire at
// n processes (B/op and allocs/op are the figures); a 128-wire mesh builds
// 128 of them in one process.
//
//	go test ./internal/transport -run '^$' -bench PeerNetworkBuild -benchtime 20x
func BenchmarkPeerNetworkBuild(b *testing.B) {
	for _, n := range []int{128, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				nw, pw, err := NewPeerNetwork(n, 5, "")
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				pw.Close()
				nw.Close()
				b.StartTimer()
			}
		})
	}
}
