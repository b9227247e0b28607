package core

import (
	"bytes"
	"testing"

	"repro/internal/mpi"
)

// rendezvousPayload is a patterned message larger than the eager limit.
func rendezvousPayload() []byte {
	b := make([]byte, mpi.DefaultEagerLimit+4096)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

func TestLeaderWildcardMatchesQueuedRTS(t *testing.T) {
	// The leader's wildcard matches a rendezvous message already in its
	// unexpected queue as the receive is posted: the decision must still
	// reach the follower, and both replicas must receive the payload.
	want := rendezvousPayload()
	miniWorld(t, 2, 2, ModeLeader, Options{}, func(c *mpi.Comm, p *Replicated) {
		if c.Rank() == 0 {
			c.Send(1, 5, want)
			return
		}
		c.Probe(0, 5) // the RTS is queued before the wildcard is posted
		got := make([]byte, len(want))
		if st := c.Recv(mpi.AnySource, 5, got); st.Source != 0 || st.Count != len(want) {
			t.Errorf("replica %d: status %+v", p.Rep(), st)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("replica %d: payload differs from the one sent", p.Rep())
		}
	})
}

func TestLeaderFollowerCancelledBeforeDecision(t *testing.T) {
	// A follower's wildcard is built at once but posted only when the
	// leader's decision names its source; cancelled before then, it is
	// never posted.
	posted := make(chan struct{})
	miniWorld(t, 2, 2, ModeLeader, Options{}, func(c *mpi.Comm, p *Replicated) {
		buf := make([]byte, 8)
		switch {
		case c.Rank() == 0:
			<-posted
			c.Send(1, 7, buf)
		case p.Rep() == 0:
			c.Recv(mpi.AnySource, 7, buf)
		default:
			r := c.Irecv(mpi.AnySource, 7, buf)
			pr := p.wc.waiting[0]
			if pr == nil {
				t.Error("the follower's wildcard is not waiting for a decision")
				close(posted)
				return
			}
			p.eng.Cancel(pr)
			close(posted)
			p.eng.WaitUntil(func() bool { return len(p.wc.waiting) == 0 })
			if n := p.eng.PostedLen(); n != 0 {
				t.Errorf("%d receives posted after the decision for a cancelled wildcard", n)
			}
			if !r.Done() {
				t.Error("the cancelled wildcard's request is not complete")
			}
		}
	})
}

func TestRendezvousFanOutBeyondTwo(t *testing.T) {
	// Rank 0 has two replicas and rank 1 four: replica 0 of rank 0 sends
	// to rank 1's worlds 0, 2 and 3 (three PML requests, one past the
	// request's two inline slots) and expects world 1's ack. World 3
	// posts its receive only after world 1 has acked: the send completes
	// only once the third receiver has taken the payload, so clobbering
	// the buffer after Send returns must not reach any replica of rank 1.
	layout, err := NewLayout(2, 4, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := rendezvousPayload()
	acked := make(chan struct{})
	miniWorldLayout(t, layout, ModeParallel, Options{}, func(c *mpi.Comm, p *Replicated) {
		if c.Rank() == 1 {
			if p.Rep() == 3 {
				<-acked
			}
			got := make([]byte, len(want))
			c.Recv(0, 0, got)
			if p.Rep() == 1 {
				close(acked)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("replica %d: payload differs from the one sent", p.Rep())
			}
			return
		}
		if p.Rep() == 0 && len(p.physicalDests[1]) != 3 {
			t.Errorf("replica 0 of rank 0 sends to %d replicas, want 3", len(p.physicalDests[1]))
		}
		data := bytes.Clone(want)
		c.Send(1, 0, data)
		clear(data)
		if n := p.RetainedCount(); n != 0 {
			t.Errorf("replica %d: rendezvous Send returned with %d unacknowledged messages", p.Rep(), n)
		}
	})
}

func TestIrecvAckOnWait(t *testing.T) {
	// Under the AckOnWait ablation a receive acks when the application
	// completes it: once per replica, however often the request is waited
	// on or tested, and each of those calls returns the same status.
	acks := mAckMsgs.Value()
	miniWorld(t, 2, 2, ModeParallel, Options{AckOnWait: true, NoAckCoalesce: true}, func(c *mpi.Comm, p *Replicated) {
		if c.Rank() == 0 {
			c.Send(1, 3, []byte{7})
			p.Quiesce()
			return
		}
		buf := make([]byte, 1)
		r := c.Irecv(0, 3, buf)
		want := mpi.Status{Source: 0, Tag: 3, Count: 1}
		first, second := r.Wait(), r.Wait()
		third, done := r.Test()
		mpi.Waitall(r)
		if first != want || second != want || third != want || !done {
			t.Errorf("replica %d: statuses %+v, %+v, %+v (done %v), want %+v", p.Rep(), first, second, third, done, want)
		}
		if buf[0] != 7 {
			t.Errorf("replica %d: received %d, want 7", p.Rep(), buf[0])
		}
	})
	if n := mAckMsgs.Value() - acks; n != 2 {
		t.Errorf("%d acks from the two receiving replicas, want 2", n)
	}
}
