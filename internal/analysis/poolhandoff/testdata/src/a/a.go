// Package a exercises the poolhandoff diagnostics: leaks on early
// return, leaks at scope end, conditional releases, and double releases.
package a

import (
	"errors"

	"transport"
)

var sink []byte

// earlyReturn leaks on the error path: the pooled buffer is owned and
// unreleased when the return runs.
func earlyReturn(n int, err error) error {
	b := transport.GetBuf(0, n)
	if err != nil {
		return err // want `return without releasing "b"`
	}
	transport.FreeBuf(b)
	return nil
}

// leakEnd never releases at all.
func leakEnd(n int) {
	b := transport.GetBuf(0, n) // want `"b" may go out of scope without`
	_ = len(b)
}

// condRelease releases on only one branch and falls off the end of the
// scope on the other.
func condRelease(n int, ok bool) {
	b := transport.GetBuf(0, n) // want `"b" may go out of scope without`
	if ok {
		transport.FreeBuf(b)
	}
}

// double releases the same buffer twice.
func double(n int) {
	b := transport.GetBuf(0, n)
	transport.FreeBuf(b)
	transport.FreeBuf(b) // want `double release`
}

// condDouble may have released already when the second release runs.
func condDouble(n int, ok bool) {
	b := transport.GetBuf(0, n)
	if ok {
		transport.FreeBuf(b)
	}
	transport.FreeBuf(b) // want `double release`
}

// deferDouble frees inline under an armed defer.
func deferDouble(n int) {
	b := transport.GetBuf(0, n)
	defer transport.FreeBuf(b)
	transport.FreeBuf(b) // want `double release`
}

// msgLeakConditional: envelope freed on one branch only.
func msgLeakConditional(c bool) {
	m := transport.GetMessage(0) // want `"m" may go out of scope without`
	m.Tag = 7
	if c {
		transport.FreeMessage(m)
	}
}

// switchLeak: a case without a release falls off the scope owned.
func switchLeak(n, mode int) {
	b := transport.GetBuf(0, n) // want `"b" may go out of scope without`
	switch mode {
	case 0:
		transport.FreeBuf(b)
	case 1:
		_ = cap(b)
	}
}

// innerBlockLeak: the obligation dies with its block, not the function.
func innerBlockLeak(n int, ok bool) {
	if ok {
		b := transport.GetBuf(0, n) // want `"b" may go out of scope without`
		_ = len(b)
	}
	errors.New("unrelated")
}

// batchDoubleFree: staging into a batch IS the handoff — the flush that
// empties the slice releases the envelope; freeing it here too hands the
// same envelope to two owners.
func batchDoubleFree(batch []*transport.Message) []*transport.Message {
	m := transport.GetMessage(0)
	batch = append(batch, m)
	transport.FreeMessage(m) // want `double release`
	return batch
}

// batchStageReleased: the mirror image — a freed envelope staged into a
// batch flushes recycled memory to the wire.
func batchStageReleased(batch []*transport.Message) []*transport.Message {
	m := transport.GetMessage(0)
	transport.FreeMessage(m)
	batch = append(batch, m) // want `staging a released pool object`
	return batch
}

// batchCondLeak: staged on one branch only; the other path still owns the
// envelope when the function returns.
func batchCondLeak(batch []*transport.Message, ok bool) []*transport.Message {
	m := transport.GetMessage(0)
	if ok {
		batch = append(batch, m)
	}
	return batch // want `return without releasing "m"`
}
