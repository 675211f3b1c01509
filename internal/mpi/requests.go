package mpi

import (
	"repro/internal/machine"
	"repro/internal/sim"
)

// Request is the handle of a non-blocking operation.
type Request struct {
	done bool
	sig  *sim.Signal
}

// Done reports whether the operation has completed.
func (q *Request) Done() bool { return q.done }

// Wait blocks p until the operation completes.
func (q *Request) Wait(p *sim.Proc) {
	for !q.done {
		q.sig.Wait(p)
	}
}

// WaitAll blocks p until every request completes.
func WaitAll(p *sim.Proc, reqs ...*Request) {
	for _, q := range reqs {
		q.Wait(p)
	}
}

// Isend starts a non-blocking send: Send's protocol, run without a
// process (the library's progression) from an event of this instant;
// the software overheads still run on this rank's communication core.
func (r *Rank) Isend(dst, tag int, buf *machine.Buffer, size int64) *Request {
	return r.post(true, dst, tag, buf, size)
}

// Irecv starts a non-blocking receive, as Isend does a send.
func (r *Rank) Irecv(src, tag int, buf *machine.Buffer, size int64) *Request {
	return r.post(false, src, tag, buf, size)
}

// post starts a non-blocking operation whose completion completes the
// returned request.
func (r *Rank) post(send bool, peer, tag int, buf *machine.Buffer, size int64) *Request {
	k := r.world.cluster.K
	q := &Request{sig: sim.NewSignal(k)}
	k.At(k.Now(), func() { r.newOp(send, peer, tag, buf, size, nil).start(q.complete) })
	return q
}

// complete ends the request's operation: it panics with a failure, as
// Send and Recv do, and otherwise wakes the request's waiters.
func (q *Request) complete(err error) {
	must(err)
	q.done = true
	q.sig.Broadcast()
}

// barrierTag is reserved for Barrier control messages.
const barrierTag = -1

// Barrier synchronises this rank with every other rank through a naive
// all-to-one/one-to-all exchange of empty messages; sufficient for the
// two-node setups of the paper. Every rank must call Barrier from its
// own process.
func (r *Rank) Barrier(p *sim.Proc) {
	w := r.world
	if w.Size() == 1 {
		return
	}
	if r.ID == 0 {
		for i := 1; i < w.Size(); i++ {
			r.Recv(p, i, barrierTag, nil, 0)
		}
		for i := 1; i < w.Size(); i++ {
			r.Send(p, i, barrierTag, nil, 0)
		}
		return
	}
	r.Send(p, 0, barrierTag, nil, 0)
	r.Recv(p, 0, barrierTag, nil, 0)
}
