package mpi

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// eagerStream is a scenario that sends n full-size eager messages
// from rank 0 to rank 1 under a fault schedule, through SendFT and
// RecvFT, with the failure detector armed when ft is set. Each script
// stops at its first error; the receiver's then stops the detector.
func eagerStream(t *testing.T, spec string, n int, ft bool) scenario {
	return func() (*machine.Cluster, *World, []script) {
		c, w := faultWorld(t, 1, spec)
		var det *Detector
		if ft {
			det = w.StartHeartbeat()
		}
		a, b := w.Rank(0), w.Rank(1)
		size := a.eagerMax()
		sbuf := a.Node.Alloc(size, a.Node.Spec.NIC.NUMA)
		rbuf := b.Node.Alloc(size, b.Node.Spec.NIC.NUMA)
		return c, w, []script{
			{acts: []act{sendFTAct(a, 1, 3, sbuf, size)}, times: n},
			{acts: []act{recvFTAct(b, 0, 3, rbuf, size)}, times: n, finally: func() {
				if det != nil {
					det.Stop()
				}
			}},
		}
	}
}

// received returns the instants a script's receives completed, and the
// error that ended it.
func received(out outcome) ([]sim.Time, error) {
	if out.failed < 0 {
		return out.ends, nil
	}
	return out.ends[:out.failed], errors.New(out.err)
}

// TestEagerPayloadUnderNICStall streams eager messages while the
// receiver's NIC stalls from 4 to 10 µs and every NIC from 9 to 14 µs:
// the second payload reaches the receiver at 7.5 µs and waits out one
// stall after the other before its flow starts. The receive instants
// and the event count are the figures the payload gave when it ran on
// a process of its own.
func TestEagerPayloadUnderNICStall(t *testing.T) {
	o := twins(t, eagerStream(t, "stall:node=1,at=4us,for=6us;stall:node=-1,at=9us,for=5us", 8, false))
	recvd, err := received(o.scripts[1])
	if err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{19991, 25476, 30961, 36446, 41931, 47416, 51750, 56084} // ns; healthy, the first lands at 11481
	if !slices.Equal(recvd, want) || o.steps != 118 {
		t.Fatalf("receives at %v after %d events, want %v after 118", recvd, o.steps, want)
	}
}

// TestEagerPayloadCrashMidFlight crashes the sender at 9 µs, while the
// second payload is on the wire: the frozen payload is dropped, and the
// receive waiting for it learns of the death from the failure detector
// instead. The receive instants, the failure and the event count are
// the figures the payload gave when it ran on a process of its own.
func TestEagerPayloadCrashMidFlight(t *testing.T) {
	const spec = "crash:node=0,at=9us"
	c, w, scripts := eagerStream(t, spec, 8, true)()
	spawnScripts(c, scripts)
	c.K.RunUntil(sim.Time(9*sim.Microsecond) - 1)
	if w.Network().Link(0).Utilization() == 0 {
		t.Fatal("no payload on the wire just before the crash")
	}
	c.K.Shutdown()

	o := twins(t, eagerStream(t, spec, 8, true))
	recvd, err := received(o.scripts[1])
	if err == nil || err.Error() != ErrPeerDead.Error() {
		t.Fatalf("receive ended with %v, want ErrPeerDead", err)
	}
	want := []sim.Time{10665} // ns
	if !slices.Equal(recvd, want) || o.steps != 33 {
		t.Fatalf("receives at %v after %d events, want %v after 33", recvd, o.steps, want)
	}
}
