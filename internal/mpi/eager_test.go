package mpi

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// eagerStream is a world that sends n full-size eager messages from
// rank 0 to rank 1 under a fault schedule, through SendFT and RecvFT,
// with the failure detector armed when ft is set. recvd collects the
// instant each receive completed and err the error that ended the
// stream, if any.
type eagerStream struct {
	c     *machine.Cluster
	w     *World
	recvd []sim.Time
	err   error
}

func newEagerStream(t *testing.T, spec string, n int, ft bool) *eagerStream {
	t.Helper()
	c, w := faultWorld(t, 1, spec)
	s := &eagerStream{c: c, w: w}
	var det *Detector
	if ft {
		det = w.StartHeartbeat(DefaultHeartbeat())
	}
	a, b := w.Rank(0), w.Rank(1)
	size := a.eagerMax()
	sbuf := a.Node.Alloc(size, a.Node.Spec.NIC.NUMA)
	rbuf := b.Node.Alloc(size, b.Node.Spec.NIC.NUMA)
	c.K.Spawn("send", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if a.SendFT(p, 1, 3, sbuf, size) != nil {
				return
			}
		}
	})
	c.K.Spawn("recv", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			if s.err = b.RecvFT(p, 0, 3, rbuf, size); s.err != nil {
				break
			}
			s.recvd = append(s.recvd, p.Now())
		}
		if det != nil {
			det.Stop()
		}
	})
	return s
}

// TestEagerPayloadUnderNICStall streams eager messages while the
// receiver's NIC stalls from 4 to 10 µs and every NIC from 9 to 14 µs:
// the second payload reaches the receiver at 7.5 µs and waits out one
// stall after the other before its flow starts. The receive instants
// and the event count are the figures the payload gave when it ran on
// a process of its own.
func TestEagerPayloadUnderNICStall(t *testing.T) {
	s := newEagerStream(t, "stall:node=1,at=4us,for=6us;stall:node=-1,at=9us,for=5us", 8, false)
	s.c.K.Run()
	if s.err != nil {
		t.Fatal(s.err)
	}
	want := []sim.Time{19991, 25476, 30961, 36446, 41931, 47416, 51750, 56084} // ns; healthy, the first lands at 11481
	if steps := s.c.K.Steps(); !slices.Equal(s.recvd, want) || steps != 118 {
		t.Fatalf("receives at %v after %d events, want %v after 118", s.recvd, steps, want)
	}
}

// TestEagerPayloadCrashMidFlight crashes the sender at 9 µs, while the
// second payload is on the wire: the frozen payload is dropped, and the
// receive waiting for it learns of the death from the failure detector
// instead. The receive instants, the failure and the event count are
// the figures the payload gave when it ran on a process of its own.
func TestEagerPayloadCrashMidFlight(t *testing.T) {
	const spec = "crash:node=0,at=9us"
	probe := newEagerStream(t, spec, 8, true)
	probe.c.K.RunUntil(sim.Time(9*sim.Microsecond) - 1)
	if probe.w.Network().Link(0).Utilization() == 0 {
		t.Fatal("no payload on the wire just before the crash")
	}
	probe.c.K.Shutdown()

	s := newEagerStream(t, spec, 8, true)
	s.c.K.Run()
	if !errors.Is(s.err, ErrPeerDead) {
		t.Fatalf("receive ended with %v, want ErrPeerDead", s.err)
	}
	want := []sim.Time{10665} // ns
	if steps := s.c.K.Steps(); !slices.Equal(s.recvd, want) || steps != 33 {
		t.Fatalf("receives at %v after %d events, want %v after 33", s.recvd, steps, want)
	}
}
