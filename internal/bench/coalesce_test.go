package bench

import (
	"strings"
	"testing"
)

func TestCoalesceAblation(t *testing.T) {
	sw, err := RunCoalesceAblation(Scale{Ranks: 4, Factor: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := sw.Rows
	if len(rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(rows))
	}
	native, discrete, coalesced := rows[0].Stats, rows[1].Stats, rows[2].Stats
	if native.AckMsgs() != 0 {
		t.Errorf("native run sent %d acks", native.AckMsgs())
	}
	if discrete.AckMsgs() < discrete.AppMsgs()/2 {
		t.Errorf("discrete acking should pay ~1 ack per app message: acks=%d app=%d",
			discrete.AckMsgs(), discrete.AppMsgs())
	}
	if coalesced.AppMsgs() != discrete.AppMsgs() {
		t.Errorf("coalescing changed application traffic: %d vs %d",
			coalesced.AppMsgs(), discrete.AppMsgs())
	}
	// The headline: strictly fewer ack messages than both the discrete
	// baseline and the application traffic, with real batching (at least
	// a 2x reduction on this windowed exchange).
	if coalesced.AckMsgs()*2 > discrete.AckMsgs() {
		t.Errorf("coalescing too weak: %d ack msgs vs discrete %d",
			coalesced.AckMsgs(), discrete.AckMsgs())
	}
	var sb strings.Builder
	RenderSweep(&sb, sw)
	if !strings.Contains(sb.String(), "ack coalescing") {
		t.Error("render missing title")
	}
}
