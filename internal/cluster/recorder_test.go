package cluster

import (
	"testing"
	"testing/quick"
)

func TestRecorderChainsMatchForIdenticalSequences(t *testing.T) {
	a := NewRecorder(10)
	b := NewRecorder(10)
	for i := 0; i < 5; i++ {
		a.RecordSend(2, i%3, i, []byte{byte(i)})
		b.RecordSend(2, i%3, i, []byte{byte(i)})
	}
	if err := CheckSendDeterminism(a, b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 5 || a.Chain() != b.Chain() {
		t.Fatal("counts/chains differ")
	}
}

func TestRecorderDetectsCountDivergence(t *testing.T) {
	a := NewRecorder(0)
	b := NewRecorder(0)
	a.RecordSend(2, 0, 0, nil)
	if err := CheckSendDeterminism(a, b); err == nil {
		t.Fatal("missing send not detected")
	}
}

func TestRecorderDetectsPayloadDivergence(t *testing.T) {
	a := NewRecorder(10)
	b := NewRecorder(10)
	a.RecordSend(2, 1, 7, []byte("x"))
	b.RecordSend(2, 1, 7, []byte("y"))
	err := CheckSendDeterminism(a, b)
	if err == nil {
		t.Fatal("payload divergence not detected")
	}
}

func TestRecorderDetectsDestinationDivergence(t *testing.T) {
	a := NewRecorder(10)
	b := NewRecorder(10)
	a.RecordSend(2, 1, 7, []byte("x"))
	b.RecordSend(2, 2, 7, []byte("x"))
	if err := CheckSendDeterminism(a, b); err == nil {
		t.Fatal("destination divergence not detected")
	}
}

func TestCheckSendDeterminismTrivialCases(t *testing.T) {
	if err := CheckSendDeterminism(); err != nil {
		t.Fatal(err)
	}
	if err := CheckSendDeterminism(NewRecorder(0)); err != nil {
		t.Fatal(err)
	}
}

func TestChainOrderSensitivityProperty(t *testing.T) {
	// Swapping two distinct adjacent sends must change the chain: the
	// chain is order-sensitive (it encodes the *sequence*).
	f := func(d1, d2 uint8, p1, p2 byte) bool {
		if d1 == d2 && p1 == p2 {
			return true
		}
		a := NewRecorder(0)
		a.RecordSend(1, int(d1), 0, []byte{p1})
		a.RecordSend(1, int(d2), 0, []byte{p2})
		b := NewRecorder(0)
		b.RecordSend(1, int(d2), 0, []byte{p2})
		b.RecordSend(1, int(d1), 0, []byte{p1})
		return a.Chain() != b.Chain()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEventRetentionBounded(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 10; i++ {
		r.RecordSend(1, i, 0, nil)
	}
	if len(r.Events()) != 3 {
		t.Fatalf("retained %d events, want 3", len(r.Events()))
	}
	if r.Count() != 10 {
		t.Fatalf("count %d", r.Count())
	}
}
