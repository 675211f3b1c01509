package mpi

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/net"
	"repro/internal/sim"
	"repro/internal/topology"
)

// BenchmarkPingPong runs b.N iterations of a henri ping-pong, eager (4
// B) and rendezvous (1 MiB), in two forms: PingPong.Start's chains of
// operations from events, and two processes over Send and Recv. It
// reports the process resumes and kernel events per iteration, which
// are deterministic counts. The chains resume no process; a process
// parks once per operation, so its form resumes 4 times per iteration,
// and CI ratchets that figure (a zero reads as a missing measurement).
func BenchmarkPingPong(b *testing.B) {
	for _, size := range []struct {
		name string
		size int64
	}{{"eager", 4}, {"rendezvous", 1 << 20}} {
		b.Run("start/"+size.name, func(b *testing.B) {
			benchPingPong(b, size.size, func(w *World, pp *PingPong) {
				pp.Start(w, 0, nil)
			})
		})
		b.Run("procs/"+size.name, func(b *testing.B) {
			benchPingPong(b, size.size, func(w *World, pp *PingPong) {
				a, r := w.Rank(0), w.Rank(1)
				k := a.Node.K()
				k.Spawn("init", func(p *sim.Proc) {
					for range pp.Iters {
						a.Send(p, 1, pingTag, pp.InitBuf, pp.Size)
						a.Recv(p, 1, pingTag+1, pp.InitBuf, pp.Size)
					}
				})
				k.Spawn("resp", func(p *sim.Proc) {
					for range pp.Iters {
						r.Recv(p, 0, pingTag, pp.RespBuf, pp.Size)
						r.Send(p, 0, pingTag+1, pp.RespBuf, pp.Size)
					}
				})
			})
		})
	}
}

// benchPingPong runs the b.N-iteration ping-pong that start starts in a
// fresh henri world and reports its resumes (less the spawns of the
// processes it started) and events per iteration.
func benchPingPong(b *testing.B, size int64, start func(*World, *PingPong)) {
	c := machine.NewCluster(topology.Henri(), 2, 1)
	w := NewWorld(c, net.New(c))
	a, r := w.Rank(0), w.Rank(1)
	pp := &PingPong{Size: size, Iters: b.N,
		InitBuf: a.Node.Alloc(size, a.Node.Spec.NIC.NUMA), RespBuf: r.Node.Alloc(size, r.Node.Spec.NIC.NUMA)}
	b.ReportAllocs()
	b.ResetTimer()
	start(w, pp)
	spawned := uint64(c.K.LiveProcs())
	c.K.Run()
	b.StopTimer()
	b.ReportMetric(float64(c.K.Resumes()-spawned)/float64(b.N), "resumes/iter")
	b.ReportMetric(float64(c.K.Steps())/float64(b.N), "events/iter")
}
