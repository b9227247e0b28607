package transport

import (
	"testing"
	"time"
)

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindEager, KindRTS, KindCTS, KindData, KindAck, KindHash, KindCtl}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" {
			t.Errorf("kind %d has empty name", k)
		}
		if seen[s] {
			t.Errorf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if got := Kind(99).String(); got == "" || seen[got] {
		t.Errorf("unknown kind name %q collides", got)
	}
}

func TestMessageLen(t *testing.T) {
	m := &Message{Data: []byte{1, 2, 3}}
	if m.Len() != 3 {
		t.Errorf("Len = %d", m.Len())
	}
	empty := &Message{}
	if empty.Len() != 0 {
		t.Errorf("empty Len = %d", empty.Len())
	}
}

func TestNetworkAccessors(t *testing.T) {
	delay := &DelayModel{Latency: time.Microsecond}
	nw := NewNetwork(3, delay)
	defer nw.Close()
	if nw.Size() != 3 {
		t.Errorf("Size = %d", nw.Size())
	}
	if nw.Delay() != delay {
		t.Error("Delay not returned")
	}
	for p := 0; p < 3; p++ {
		ep := nw.Endpoint(ProcID(p))
		if ep.ID() != ProcID(p) {
			t.Errorf("endpoint %d reports ID %d", p, ep.ID())
		}
	}
}

func TestNetworkInject(t *testing.T) {
	nw := NewNetwork(2, nil)
	defer nw.Close()
	nw.Inject(1, &Message{Kind: KindCtl, Tag: 42})
	if !nw.Endpoint(1).WaitActivity(time.Second) {
		t.Fatal("injected message did not arrive")
	}
	msgs := nw.Endpoint(1).Drain()
	if len(msgs) != 1 || msgs[0].Tag != 42 || msgs[0].Dst != 1 {
		t.Fatalf("drained %+v", msgs)
	}
	// Out-of-range destinations are dropped, not panics.
	nw.Inject(-1, &Message{Kind: KindCtl})
	nw.Inject(9, &Message{Kind: KindCtl})
}
