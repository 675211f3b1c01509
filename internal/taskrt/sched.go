package taskrt

// Scheduler policies. EagerFIFO is StarPU's default central list — the
// configuration the paper studies (§5). NUMALocal implements the
// paper's §8 future-work proposal: "the task scheduler could try to
// give tasks to workers in a way to minimize data movements between
// NUMA nodes" — per-NUMA ready queues with work stealing; a task whose
// data lives on NUMA node d is preferentially executed by a worker of
// that node, and idle workers poll their *local* queue, removing the
// cross-NUMA polling traffic of Fig 9.
type SchedulerPolicy int

const (
	// EagerFIFO is a single central ready list, on the main core's node.
	EagerFIFO SchedulerPolicy = iota
	// NUMALocal keeps one ready list per NUMA node (tasks routed by
	// their data's home node) plus a central list for unpinned tasks;
	// workers pop local first, then central, then steal.
	NUMALocal
)

func (s SchedulerPolicy) String() string {
	if s == NUMALocal {
		return "numa-local"
	}
	return "eager-fifo"
}

// queueFor returns the ready-list index a task is routed to: per-NUMA
// lists are 0..NUMANodes−1, the central list is the last slot.
func (rt *Runtime) queueFor(t *Task) int {
	if rt.cfg.Scheduler == NUMALocal && t.Spec.Bytes > 0 && t.Spec.MemNUMA >= 0 {
		return t.Spec.MemNUMA
	}
	return rt.centralQueue()
}

// centralQueue is the index of the central ready list.
func (rt *Runtime) centralQueue() int { return rt.node.Spec.NUMANodes() }

// queueHomeNUMA is where a ready list's cachelines live: per-NUMA lists
// are local to their node, the central list on the main core's.
func (rt *Runtime) queueHomeNUMA(q int) int {
	if q < rt.node.Spec.NUMANodes() {
		return q
	}
	return rt.queueNUMA
}

// tryPop pops the oldest task of the first non-empty ready list in the
// worker's pop order — local, central, then the other NUMA lists
// (stealing) — and returns it with the list it came from, or nil. With
// steal=false only the local and central lists are inspected; workers
// try that first and steal from remote lists only after an extra poll
// period, giving local workers priority on their own tasks (standard
// work-stealing etiquette). EagerFIFO has the central list only.
func (rt *Runtime) tryPop(numa int, steal bool) (*Task, int) {
	local := rt.cfg.Scheduler == NUMALocal
	if local {
		if t, ok := rt.queues[numa].TryPop(); ok {
			return t, numa
		}
	}
	central := rt.centralQueue()
	if t, ok := rt.queues[central].TryPop(); ok {
		return t, central
	}
	if local && steal {
		for q := 0; q < central; q++ {
			if q == numa {
				continue
			}
			if t, ok := rt.queues[q].TryPop(); ok {
				return t, q
			}
		}
	}
	return nil, 0
}
