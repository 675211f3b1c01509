package taskrt

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Distributed task insertion — the starpu_mpi_insert_task model the
// paper's §6 applications are written in. Every rank executes the
// *same* Insert sequence; each task runs on one rank (by default the
// owner of the data it writes); the runtimes automatically exchange
// the data handles the task needs, and the coherence bookkeeping stays
// consistent across ranks because every rank replays the identical
// insertion stream.
//
// Transfers enter the local dependency graphs through proxy tasks:
//
//   - on the sending rank, a zero-work task reading the handle posts
//     the send when it completes (so the current value is sent, after
//     every local producer);
//   - on the executing rank, a zero-work task writing the handle is
//     held until the message lands (so consumers order after the
//     transfer, and local readers/writers serialize correctly).

// DistRuntime drives one rank's runtime in a distributed program.
type DistRuntime struct {
	rt      *Runtime
	rank    int
	nranks  int
	nextTag int
}

// NewDistRuntime wraps a started runtime (which must have an MPI rank)
// for distributed task insertion over nranks ranks.
func NewDistRuntime(rt *Runtime, nranks int) *DistRuntime {
	if rt.cfg.Rank == nil {
		panic("taskrt: distributed runtime needs an MPI rank")
	}
	return &DistRuntime{rt: rt, rank: rt.cfg.Rank.ID, nranks: nranks}
}

// Runtime returns the wrapped per-node runtime.
func (d *DistRuntime) Runtime() *Runtime { return d.rt }

// Rank returns this instance's MPI rank.
func (d *DistRuntime) Rank() int { return d.rank }

// DistHandle is a data handle with a home rank. All ranks must register
// the same handles in the same order (sizes and owners must agree).
type DistHandle struct {
	Size  int64
	owner int
	// local is this rank's local replica handle (lazily the data may be
	// stale; validOn tracks the unique rank holding the current value
	// in this simplified MSI-style protocol).
	local   *Handle
	validOn int
}

// RegisterData declares a distributed handle owned by `owner`, backed
// on this rank by a local allocation on NUMA node `numa`.
func (d *DistRuntime) RegisterData(owner int, size int64, numa int) *DistHandle {
	if owner < 0 || owner >= d.nranks {
		panic(fmt.Sprintf("taskrt: handle owner %d out of range [0,%d)", owner, d.nranks))
	}
	buf := d.rt.node.Alloc(size, numa)
	return &DistHandle{
		Size:    size,
		owner:   owner,
		local:   NewHandle(buf),
		validOn: owner,
	}
}

// Owner returns the rank currently holding the valid copy.
func (h *DistHandle) Owner() int { return h.validOn }

// DistAccess pairs a distributed handle with an access mode.
type DistAccess struct {
	Handle *DistHandle
	Mode   AccessMode
}

// DistTask describes one logical task of the distributed program.
type DistTask struct {
	Spec machine.ComputeSpec
	// ExecRank selects where the task runs; -1 means the rank holding
	// the first written handle (StarPU's default placement).
	ExecRank int
	Accesses []DistAccess
}

// execRank resolves the execution rank of a task.
func (d *DistRuntime) execRank(t *DistTask) int {
	if t.ExecRank >= 0 {
		if t.ExecRank >= d.nranks {
			panic(fmt.Sprintf("taskrt: exec rank %d out of range [0,%d)", t.ExecRank, d.nranks))
		}
		return t.ExecRank
	}
	for _, a := range t.Accesses {
		if a.Mode == W {
			return a.Handle.validOn
		}
	}
	if len(t.Accesses) > 0 {
		return t.Accesses[0].Handle.validOn
	}
	return 0
}

// Insert adds one task to the distributed program. EVERY rank must call
// Insert with an identical task stream; each call returns the local
// proxy whose completion marks this rank's part of the task (nil when
// this rank contributes nothing). Blocking: runs submission costs on
// the local main thread.
func (d *DistRuntime) Insert(p *sim.Proc, t *DistTask) *Task {
	exec := d.execRank(t)
	var result *Task

	// Move every handle the task reads to the executing rank.
	for _, a := range t.Accesses {
		h := a.Handle
		needsValue := a.Mode == R || a.Mode == W // W is read-modify-write here
		if needsValue && h.validOn != exec {
			tag := d.transferTag(h)
			src := h.validOn
			switch d.rank {
			case src:
				// Send proxy: reads the local replica, posts the send on
				// completion (after every local producer finished).
				send := NewTask(machine.ComputeSpec{Name: "dist-send"}).
					Accessing(Access{h.local, R})
				h := h
				send.OnDone = func() {
					d.rt.post(nil, d.rt.request(true, exec, tag, h.local.Buf, h.Size, must))
				}
				d.rt.SubmitData(p, send)
			case exec:
				// Recv proxy: writes the local replica, held until the
				// message lands.
				recv := NewTask(machine.ComputeSpec{Name: "dist-recv"}).
					Accessing(Access{h.local, W})
				recv.Hold()
				d.rt.SubmitData(p, recv)
				d.rt.post(nil, d.rt.request(false, src, tag, h.local.Buf, h.Size, func(err error) {
					must(err)
					d.rt.Release(recv)
				}))
			}
			h.validOn = exec // replayed identically on every rank
		}
	}

	// Execute locally on the chosen rank, with local data dependencies
	// inferred from the replica handles.
	if d.rank == exec {
		task := NewTask(t.Spec)
		for _, a := range t.Accesses {
			task.Accessing(Access{a.Handle.local, a.Mode})
		}
		d.rt.SubmitData(p, task)
		result = task
	}
	// A write leaves the only valid copy on the executing rank.
	for _, a := range t.Accesses {
		if a.Mode == W {
			a.Handle.validOn = exec
		}
	}
	return result
}

// transferTag derives a fresh, rank-agreed message tag for a handle
// movement (all ranks replay the same stream, so the counters agree).
func (d *DistRuntime) transferTag(h *DistHandle) int {
	d.nextTag++
	return distTagBase + d.nextTag
}

const distTagBase = 5 << 20

// WaitAllDist drains the local runtime (tasks and posted transfers).
func (d *DistRuntime) WaitAllDist(p *sim.Proc) {
	d.rt.WaitAll(p)
	for d.rt.commInflight > 0 {
		d.rt.commIdleSig.Wait(p)
	}
}
