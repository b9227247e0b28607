package a

import "transport"

// This file must produce no diagnostics: every pattern here is a
// legitimate release or handoff (the negative cases the analyzer must
// not flag).

// handoffSetPooledData: the canonical eager-send shape — ownership of
// the payload transfers to the message, the message to the consumer.
func handoffSetPooledData(data []byte, consume func(*transport.Message)) {
	cp := transport.GetBuf(0, len(data))
	copy(cp, data)
	m := transport.GetMessage(0)
	m.SetPooledData(cp)
	consume(m)
}

// releasedOnAllPaths frees on both branches.
func releasedOnAllPaths(n int, ok bool) {
	b := transport.GetBuf(0, n)
	if ok {
		transport.FreeBuf(b)
	} else {
		transport.FreeBuf(b)
	}
}

// deferredRelease discharges every exit, early returns included.
func deferredRelease(n int, err error) error {
	b := transport.GetBuf(0, n)
	defer transport.FreeBuf(b)
	if err != nil {
		return err
	}
	_ = len(b)
	return nil
}

// returnedToCaller: ownership moves out with the return value.
func returnedToCaller(n int) []byte {
	b := transport.GetBuf(0, n)
	b[0] = 1
	return b
}

// passedToCallee: the callee owns it now.
func passedToCallee(n int, take func([]byte)) {
	b := transport.GetBuf(0, n)
	take(b)
}

// crashPathExempt: a panic path is fail-stop, not a leak.
func crashPathExempt(n int, err error) {
	b := transport.GetBuf(0, n)
	if err != nil {
		panic(err)
	}
	transport.FreeBuf(b)
}

// errorPathFrees: the decodeMessagePooled shape — free on failure, hand
// off on success.
func errorPathFrees(fill func(*transport.Message) error) (*transport.Message, error) {
	m := transport.GetMessage(0)
	if err := fill(m); err != nil {
		transport.FreeMessage(m)
		return nil, err
	}
	return m, nil
}

// loopTouched: flow under iteration is beyond the checker; it must stay
// silent rather than guess.
func loopTouched(n, k int) {
	b := transport.GetBuf(0, n)
	for i := 0; i < k; i++ {
		if i == k-1 {
			transport.FreeBuf(b)
		}
	}
}

// reassigned: the handle is overwritten — aliasing beyond the checker.
func reassigned(n int) {
	b := transport.GetBuf(0, n)
	b = append(b, 0)
	sink = b
}

// storedGlobally escapes into a longer-lived structure.
func storedGlobally(n int) {
	b := transport.GetBuf(0, n)
	sink = b
}

// bareLiteral is not pool-owned: FreeMessage on it is the documented
// no-op, and no obligation exists.
func bareLiteral() {
	m := &transport.Message{Tag: 1}
	transport.FreeMessage(m)
}

// batchStaged: the staging append is the one ownership handoff; the
// batch's flush releases the envelope, this frame owes nothing more.
func batchStaged(batch []*transport.Message) []*transport.Message {
	m := transport.GetMessage(0)
	m.Tag = 3
	batch = append(batch, m)
	return batch
}

// byteSplat: appending a pooled buffer's BYTES copies them — ownership
// stays here and the inline free is correct, not a double release.
func byteSplat(n int, out []byte) []byte {
	b := transport.GetBuf(0, n)
	out = append(out, b...)
	transport.FreeBuf(b)
	return out
}
