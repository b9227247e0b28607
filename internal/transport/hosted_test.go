package transport

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
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
	// A one-shard endpoint is the same Endpoint under what a wire does to a
	// process it does not host: fail-stop Kill, a Revive that starts from an
	// empty queue, and liveness. Nothing drains or waits on one; draining
	// and waiting are TestFIFOPerPair's, TestReviveClearsQueue's and
	// TestTimedWaitReturnsAtDeadline's, on hosted endpoints.
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
		m := GetMessage(p)
		m.Src, m.Kind, m.Tag = src, KindEager, tag
		nw.Inject(p, m)
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
	if ep.ready.Load() != 0 {
		t.Fatalf("ready mask %b after the revive, want an empty queue", ep.ready.Load())
	}
}

func TestUnhostedEndpointFootprint(t *testing.T) {
	// A worker's network is one hosted endpoint among n; a 128-wire mesh
	// holds 127×128 unhosted ones. With every endpoint carrying the sender,
	// drain and parking state, NewPeerNetwork(128) allocated 54,280 bytes:
	// 427 per unhosted endpoint (281 of them the endpoint itself: 144 B of
	// struct, a 64 B shard and a 64 B condition variable). The bound is the
	// figure without them, about 300, plus slack for the wire's goroutines.
	best := ^uint64(0)
	for i := 0; i < 5; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		nw, pw, err := NewPeerNetwork(128, 5, "")
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		pw.Close()
		nw.Close()
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	if per := best / 127; per > 330 {
		t.Fatalf("NewPeerNetwork(128) allocated %d bytes, %d per unhosted endpoint; want at most 330", best, per)
	}
	if n := unsafe.Sizeof(Endpoint{}); n > 80 {
		t.Fatalf("Endpoint is %d bytes, want at most 80", n)
	}
}

func TestHostedEndpointLayout(t *testing.T) {
	// The owner's per-message words sit at least a line away from every
	// word an injector writes or reads on the delivery path, and from both
	// ends of the allocation, so no other CPU and no neighbouring hosted
	// endpoint shares their line.
	var h hostedEndpoint
	// [start, end) of a field at offset in within a member at offset out.
	at := func(out, in, size uintptr) [2]uintptr { return [2]uintptr{out + in, out + in + size} }
	ep, park, own := unsafe.Offsetof(h.ep), unsafe.Offsetof(h.park), unsafe.Offsetof(h.own)
	injector := map[string][2]uintptr{
		"ready":       at(ep, unsafe.Offsetof(h.ep.ready), unsafe.Sizeof(h.ep.ready)),
		"dead":        at(ep, unsafe.Offsetof(h.ep.dead), unsafe.Sizeof(h.ep.dead)),
		"sleepers":    at(ep, unsafe.Offsetof(h.ep.sleepers), unsafe.Sizeof(h.ep.sleepers)),
		"ackSleepers": at(ep, unsafe.Offsetof(h.ep.ackSleepers), unsafe.Sizeof(h.ep.ackSleepers)),
		"park.mu":     at(park, unsafe.Offsetof(h.park.mu), unsafe.Sizeof(h.park.mu)),
		"park.cond":   at(park, unsafe.Offsetof(h.park.cond), unsafe.Sizeof(h.park.cond)),
		"start":       {0, 0},
		"end":         {unsafe.Sizeof(h), unsafe.Sizeof(h)},
	}
	owner := map[string][2]uintptr{
		"own.sender":   at(own, unsafe.Offsetof(h.own.sender), unsafe.Sizeof(h.own.sender)),
		"own.drainBuf": at(own, unsafe.Offsetof(h.own.drainBuf), unsafe.Sizeof(h.own.drainBuf)),
	}
	for on, o := range owner {
		for in, w := range injector {
			gap := o[0] - w[1] // owner words come after the injector ones ...
			if w[0] >= o[1] {
				gap = w[0] - o[1] // ... and before the end
			}
			if int(gap) < cacheLine {
				t.Errorf("%s [%d,%d) is %d bytes from %s [%d,%d), want at least %d", on, o[0], o[1], gap, in, w[0], w[1], cacheLine)
			}
		}
	}
	// What an injector touches on the endpoint — shards, dead flag, sleeper
	// counts, ready mask, park pointer — fits the allocation's first line.
	for name, end := range map[string]uintptr{
		"shards":      unsafe.Offsetof(h.ep.shards) + unsafe.Sizeof(h.ep.shards),
		"dead":        unsafe.Offsetof(h.ep.dead) + unsafe.Sizeof(h.ep.dead),
		"sleepers":    unsafe.Offsetof(h.ep.sleepers) + unsafe.Sizeof(h.ep.sleepers),
		"ackSleepers": unsafe.Offsetof(h.ep.ackSleepers) + unsafe.Sizeof(h.ep.ackSleepers),
		"ready":       unsafe.Offsetof(h.ep.ready) + unsafe.Sizeof(h.ep.ready),
		"park":        unsafe.Offsetof(h.ep.park) + unsafe.Sizeof(h.ep.park),
	} {
		if end > cacheLine {
			t.Errorf("Endpoint.%s ends at byte %d, past the first line", name, end)
		}
	}
	// A wake takes park.mu and broadcasts on park.cond: one line.
	if park%cacheLine != 0 || unsafe.Offsetof(h.park.cond)+unsafe.Sizeof(h.park.cond) > cacheLine {
		t.Errorf("park at byte %d, its cond ending %d bytes in: want both on the park's first line",
			park, unsafe.Offsetof(h.park.cond)+unsafe.Sizeof(h.park.cond))
	}
	// A size that is a multiple of the line puts an allocation in a size
	// class whose objects start on a line.
	if n := unsafe.Sizeof(h); n%cacheLine != 0 {
		t.Errorf("hostedEndpoint is %d bytes, want a multiple of %d", n, cacheLine)
	}
	if n := unsafe.Sizeof(senderBlock{}); n%cacheLine != 0 {
		t.Errorf("senderBlock is %d bytes, want a multiple of %d", n, cacheLine)
	}
	nw := NewNetwork(2, nil)
	defer nw.Close()
	if ep := nw.Endpoint(0); ep.own == nil || ep.park == nil {
		t.Fatal("a hosted endpoint has no owner or parking state")
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
