// Package fluid implements a weighted max-min fair bandwidth-sharing
// model over a set of resources (memory controllers, inter-NUMA links,
// PCIe lanes, network wires) and flows (compute kernels, memory streams,
// DMA transfers).
//
// This is the classic fluid model used by network and platform simulators
// (e.g. SimGrid): each flow f gets a single rate r_f; for every resource
// R with capacity C_R, the constraint sum over flows on R of w_{f,R}·r_f
// ≤ C_R must hold; the solver maximises the allocation in max-min order
// using progressive filling. A flow may additionally carry a private rate
// cap (e.g. a core's peak flop rate at its current frequency).
//
// The model is driven by a sim.Kernel: whenever the flow set or a
// capacity changes, rates are re-solved and the next flow completion is
// (re)scheduled as a simulation event. Hold/Release coalesce the
// re-solves of several mutations made at one instant into one, and the
// loop slices that end together and start again at that instant are
// renewed with one re-solve at most, usually none (see Renew). A start,
// cancel or completion of a flow that cannot move any other flow's rate
// skips its re-solve altogether (see isolated), and one that takes the
// model to a state it has solved before writes that solve back (see
// reuse.go).
//
// # Solver implementation
//
// The solver is incremental: resources and flows carry dense integer
// indices into preallocated scratch arrays, every resource keeps an
// adjacency list of the flows crossing it, and a mutation (flow
// add/remove, cap or capacity change) re-solves only the connected
// component of the resource/flow bipartite graph that the mutation
// touched — flows in unrelated components keep their rates. The
// restriction is exact, not approximate: progressive filling fixes
// flows in ascending threshold order and a fix only mutates the
// availability/weight bookkeeping of the resources that flow crosses,
// so the sequence of floating-point operations applied to a component
// is bit-for-bit the one a full re-solve would apply (see
// reference.go for the original whole-model solver, kept as the
// differential oracle, and DESIGN.md §4 for the equivalence argument).
package fluid

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/sim"
)

// Resource is a shared capacity (units/second, typically bytes/s or
// flops/s). Capacity may change during the simulation (e.g. uncore
// frequency scaling a memory controller).
type Resource struct {
	name     string
	capacity float64
	model    *Model
	// load is the sum of w·r over current flows, maintained by solve.
	load float64
	// id is the dense index into the model's scratch arrays.
	id int
	// flows lists the active flows crossing this resource (the
	// adjacency the incremental solver walks to find the touched
	// connected component).
	flows []resUse
	// mark is the epoch stamp of the last component traversal that
	// visited this resource.
	mark uint64
}

// resUse is one edge of the resource→flow adjacency: the flow and the
// position of this resource in the flow's uses list (so removal can fix
// up the back-pointers of the entry swapped into the hole).
type resUse struct {
	f   *Flow
	idx int
}

// Name returns the resource name given at creation.
func (r *Resource) Name() string { return r.name }

// Capacity returns the current capacity in units/second.
func (r *Resource) Capacity() float64 { return r.capacity }

// Utilization returns load/capacity in [0,1] under the current
// allocation. It is the quantity the latency model reads: a memory
// access crossing a bus at utilization ρ sees queueing delay growing
// with ρ.
func (r *Resource) Utilization() float64 {
	r.model.flush()
	return r.SteadyUtilization()
}

// SteadyUtilization is Utilization under the rates as they stand: it
// runs no pending solve and leaves parked flows parked, so a parked flow
// still counts at the rate a renewal keeps (see Renew).
func (r *Resource) SteadyUtilization() float64 {
	if r.capacity <= 0 {
		if r.load > 0 {
			return 1
		}
		return 0
	}
	u := r.load / r.capacity
	if u > 1 {
		u = 1
	}
	return u
}

// Use couples a flow to a resource: the flow consumes weight·rate of the
// resource's capacity. Weight 1 is the common case; weights >1 model
// flows that stress a resource more per unit of progress (e.g. a COPY
// stream reads and writes), weights <1 model flows that get hardware
// arbitration preference (e.g. NIC DMA engines).
type Use struct {
	Resource *Resource
	Weight   float64
}

// Flow is an ongoing activity with a fixed amount of remaining work.
type Flow struct {
	model     *Model
	name      string
	remaining float64
	total     float64
	rate      float64
	cap       float64 // private rate bound; 0 means unbounded
	priority  float64 // rate multiplier in the fair allocation; ≥ default 1
	uses      []Use   // model-owned copy of the spec's uses (pooled)
	usePos    []int   // position of this flow in each use's resource list
	onDone    func()
	started   sim.Time
	finished  bool
	pooled    bool   // on the model's flow free list
	renewable bool   // FlowSpec.Renewable
	parked    bool   // completed, and kept for a Renew (see park)
	pos       int32  // position in compFlows during an ordered fill (fits the bools' padding)
	index     int    // position in model.flows, -1 when removed
	mark      uint64 // component-traversal epoch stamp
	version   uint64 // the model's version after a recorded start of this flow, else 0 (see undo)
}

// FlowSpec describes a flow to start.
type FlowSpec struct {
	Name string
	// Work is the amount to transfer/compute, in resource units.
	Work float64
	// Cap bounds the flow's rate; 0 means unbounded by the flow itself.
	Cap float64
	// Priority scales the flow's share of a contended resource: under
	// max-min fairness the flow's rate is Priority times the fair unit.
	// Hardware DMA engines, which win memory-controller arbitration
	// against core streams, get Priority > 1. Zero means 1.
	Priority float64
	// Uses lists the resources crossed, with consumption weights. The
	// slice is copied into model-owned (pooled) storage at Start, so
	// callers may reuse a scratch buffer across starts.
	Uses []Use
	// OnDone, if non-nil, runs as a simulation event at completion.
	OnDone func()
	// Renewable lets a completion park the flow, for its owner to Renew
	// as its next run instead of starting a new flow (see Model.Renew).
	// The owner promises to act at the instant OnDone runs: renew the
	// flow, or call the model in a way that materializes it — Recycle,
	// any mutation, or a read of a rate or load — before simulated time
	// moves on.
	Renewable bool
}

// Name returns the flow name.
func (f *Flow) Name() string { return f.name }

// Rate returns the currently allocated rate (units/second).
func (f *Flow) Rate() float64 {
	f.model.flush()
	return f.rate
}

// Remaining returns the work left, after accounting progress up to the
// current instant.
func (f *Flow) Remaining() float64 {
	f.model.flush()
	f.model.advance()
	return f.remaining
}

// Total returns the work the flow started with.
func (f *Flow) Total() float64 { return f.total }

// Finished reports whether the flow has completed (or was cancelled).
// A parked flow has completed.
func (f *Flow) Finished() bool { return f.finished }

// Parked reports whether f completed and was parked: its OnDone is
// queued and it has left the flow list, but it keeps its uses and rate
// until its owner renews it or the model materializes it (see Renew).
func (f *Flow) Parked() bool { return f.parked }

// Cap returns the flow's private rate bound (0 = unbounded).
func (f *Flow) Cap() float64 { return f.cap }

// Started returns the instant the flow was started.
func (f *Flow) Started() sim.Time { return f.started }

// Model owns resources and flows and keeps the piecewise-constant rate
// allocation in sync with the simulation clock.
type Model struct {
	k          *sim.Kernel
	resources  []*Resource
	flows      []*Flow
	lastUpdate sim.Time
	next       *sim.Timer // reusable next-completion event
	solves     uint64
	skips      uint64 // mutations of isolated flows that skipped their solve
	reuses     uint64 // starts and removals that wrote back a recorded solve
	epoch      uint64 // component-traversal epoch

	// version names the state that rates are solved for; versions is the
	// last version handed out, and memo records starts by version (see
	// reuse.go). The memo is nil until the first start it could record.
	version  uint64
	versions uint64
	memo     *startMemo

	// reference forces the original whole-model map-based solver on
	// every re-solve (benchmarks and differential tests).
	reference bool
	// differential re-runs the reference solver after every incremental
	// solve and panics if any rate or load disagrees by more than one
	// ulp — the oracle guarding golden verification runs.
	differential bool

	// dirty seeds accumulated since the last solve: the incremental
	// solver re-solves the union of the connected components reachable
	// from them.
	dirtyFlows []*Flow
	dirtyRes   []*Resource

	// holds counts the open Hold calls. While it is positive a mutation
	// may leave its re-solve pending, to be run once by the outermost
	// Release or by the next read of a rate or load (see Hold).
	holds   int
	pending bool
	// noHolds makes Hold and Release no-ops (UseHolds(false)).
	noHolds bool
	// settledAt is an instant at which every flow was at least settleEps
	// from its end under the rates then current, as found by a re-solve
	// or a scan at that instant (see settled). -1 when unknown.
	settledAt sim.Time
	// scanNext is the next completion, in seconds, that the last scan
	// (collectDone) found when it found no flow due, for as long as it
	// holds; -1 once a bump, an advance that moves time or Reset has made
	// it stale (a solve needs a dirty seed, which only a mutation that
	// bumps adds). An isolated start folds its flow into it instead of
	// scanning again (see startIsolated).
	scanNext float64
	// scans counts collectDone's scans, and folds the isolated starts
	// that folded into scanNext instead (for tests).
	scans, folds uint64

	// parked lists, in park order, the flows the last completion parked
	// at parkedAt; the first renewed of them have been renewed since, the
	// rest are still parked. parkTail records that they were the tail of
	// the flow list (see park).
	parked   []*Flow
	renewed  int
	parkedAt sim.Time
	parkTail bool
	// parkVersion is the version before the park, which the last renewal
	// of a tail park restores.
	parkVersion uint64

	// Scratch buffers, reused across solves so the steady state
	// allocates nothing. avail/wsum are indexed by Resource.id.
	avail     []float64
	wsum      []float64
	fixed     []bool
	caps      []capEntry // fillScan's cap list; fillOrdered's is pooled
	compFlows []*Flow
	compRes   []*Resource
	done      []*Flow
	sumKeys   []int64 // resum's (flow index, use index) keys

	// Free lists for the model-owned per-flow bookkeeping arrays,
	// recycled when a flow is removed, and for Flow structs explicitly
	// returned with Recycle.
	freeUses  [][]Use
	freePos   [][]int
	freeFlows []*Flow

	// slab backs the Resource structs NewResource hands out: one array
	// per chunk instead of one allocation per resource. A full chunk is
	// left to the resources it holds and a new one started (see Reserve).
	slab []Resource
}

// NewModel returns an empty fluid model driven by kernel k.
func NewModel(k *sim.Kernel) *Model {
	m := &Model{k: k, differential: differentialDefault, settledAt: -1, scanNext: -1}
	m.next = k.NewTimer(m.complete)
	return m
}

// complete is the completion timer's callback: it parks the loop slices
// ending now, or else removes the flows due now and re-solves.
func (m *Model) complete() {
	if m.holds > 0 {
		panic("fluid: completion timer fired while the model is held (a Hold leaked across a blocking call)")
	}
	m.advance()
	if m.park() {
		return
	}
	if !m.quiet() {
		m.resolveNow()
		return
	}
	done, next := m.collectDone()
	if len(done) == 1 {
		// Undo first: an isolated removal takes a fresh version, which
		// would end the chain of states the memo can reach.
		if f := done[0]; m.undo(f) {
			if f.onDone != nil {
				m.k.At(m.k.Now(), f.onDone)
			}
			done, next = m.collectDone()
		} else if m.removeIsolated(f) {
			if f.onDone != nil {
				m.k.At(m.k.Now(), f.onDone)
			}
			m.skipped(next)
			return
		}
	}
	// Nothing is dirty or pending, so the solve of resolveNow would find
	// no seed, and its scan these very flows.
	m.finish(done, next, false)
}

// Solves reports how many times an allocation was recomputed (full or
// component-scoped; for performance diagnostics). A start, cancel or
// completion that skipped its solve (see Skips) is not a solve.
func (m *Model) Solves() uint64 { return m.solves }

// Skips reports how many starts, cancels and completions of isolated
// flows left every other rate as it was and skipped their re-solve (see
// isolated; for performance diagnostics).
func (m *Model) Skips() uint64 { return m.skips }

// Version tags the solver's numerical behaviour. Bump it whenever a
// change can alter any computed rate or completion time by even an ulp:
// it is folded into content-addressed result-cache keys (see
// internal/runner), so stale cached measurements are recomputed instead
// of replayed against a different solver.
const Version = 1

// differentialDefault seeds the differential flag of newly created
// models; set it with SetDifferential before building any world.
var differentialDefault bool

// SetDifferential toggles the differential oracle for models created
// afterwards: every incremental solve is shadowed by the reference
// solver and any disagreement beyond one ulp panics. Roughly doubles
// solver cost; meant for golden-verification runs and tests. Not safe
// to call concurrently with model creation.
func SetDifferential(on bool) { differentialDefault = on }

// UseReference forces the original whole-model map-based solver for
// every subsequent re-solve of this model. Benchmarks and equivalence
// tests only.
func (m *Model) UseReference(on bool) { m.reference = on }

// UseHolds(false) turns Hold and Release into no-ops, so every mutation
// re-solves at once: the behaviour holds must reproduce, for
// equivalence tests. Call it while no hold is open.
func (m *Model) UseHolds(on bool) { m.noHolds = !on }

// Hold defers re-solves until the matching Release. Holds nest; the
// outermost Release runs one re-solve covering every mutation made
// under the hold, where each mutation would otherwise have re-solved on
// its own. A caller that makes several mutations at one simulated
// instant — a kernel slice ending and the next one starting — pays for
// one solve instead of one per mutation.
//
// Holding is unobservable:
//   - a solve depends only on the state it solves, and no simulated
//     time passes under a hold, so the one deferred solve computes the
//     rates the last of the sequential solves would have;
//   - the flow set, capacities and caps change at once; only rates,
//     loads and the completion timer wait;
//   - a read of a rate or load (Rate, Remaining, Utilization) first runs
//     any pending solve, so it sees what it would have seen without
//     the hold;
//   - a mutation made while some flow is within settleEps (1 ns) of its
//     end re-solves at once, as without the hold, so a due flow is
//     collected, and its OnDone event queued, in the same order.
//
// A skipped intermediate solve could only have completed a flow earlier
// by raising its rate at least tenfold for the instant; the callers'
// holds cover census and frequency steps far smaller (DESIGN.md §4). No
// simulated time may pass under a hold: if the completion timer fires
// while the model is held, a hold has leaked across a blocking call and
// the model panics.
func (m *Model) Hold() {
	if !m.noHolds {
		m.holds++
	}
}

// Release closes a Hold; the outermost Release runs the pending solve.
func (m *Model) Release() {
	if m.noHolds {
		return
	}
	if m.holds == 0 {
		panic("fluid: Release without Hold")
	}
	m.holds--
	if m.holds == 0 {
		m.flush()
	}
}

// flush brings rates and loads up to date: it materializes parked
// flows, then runs the solve a hold left pending.
func (m *Model) flush() {
	m.materialize()
	if m.pending {
		m.resolveNow()
	}
}

// NewResource registers a resource with the given capacity in
// units/second. Capacity must be positive.
func (m *Model) NewResource(name string, capacity float64) *Resource {
	if capacity <= 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("fluid: resource %q capacity %v must be positive", name, capacity))
	}
	if len(m.slab) == cap(m.slab) {
		m.slab = make([]Resource, 0, max(16, len(m.resources)))
	}
	m.slab = append(m.slab, Resource{name: name, capacity: capacity, model: m, id: len(m.resources)})
	r := &m.slab[len(m.slab)-1]
	m.resources = append(m.resources, r)
	m.avail = append(m.avail, 0)
	m.wsum = append(m.wsum, 0)
	return r
}

// Resources returns the model's resources in id order, which is their
// creation order. The slice is the model's own: read it, never modify it.
func (m *Model) Resources() []*Resource { return m.resources }

// Reserve makes room for n more resources, for a builder that knows how
// many it will create: the next n NewResource calls then grow no array.
func (m *Model) Reserve(n int) {
	m.resources = slices.Grow(m.resources, n)
	m.avail = slices.Grow(m.avail, n)
	m.wsum = slices.Grow(m.wsum, n)
	if cap(m.slab)-len(m.slab) < n {
		m.slab = make([]Resource, 0, n)
	}
}

// SetCapacity changes a resource's capacity and re-solves the
// allocation of the component it belongs to. Used for frequency
// scaling.
func (m *Model) SetCapacity(r *Resource, capacity float64) {
	if capacity <= 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("fluid: resource %q capacity %v must be positive", r.name, capacity))
	}
	if r.capacity == capacity {
		return
	}
	m.advance()
	r.capacity = capacity
	m.bump()
	m.dirtyRes = append(m.dirtyRes, r)
	m.resolve()
}

// StartFlow begins an activity of `work` units using the given
// resources, with default priority. cap bounds the flow's rate (0 =
// unbounded; a flow with no uses must have cap > 0 or it would finish
// instantly — such flows are rejected). onDone, if non-nil, runs as a
// simulation event when the flow completes.
func (m *Model) StartFlow(name string, work float64, cap float64, uses []Use, onDone func()) *Flow {
	return m.Start(FlowSpec{Name: name, Work: work, Cap: cap, Uses: uses, OnDone: onDone})
}

// Start begins the flow described by spec and re-solves the allocation
// of the component it joins; a flow that cannot move any other rate
// gets its rate without a solve (see isolated), and a start the model
// has solved before from this state reuses that solve (see startReused).
func (m *Model) Start(spec FlowSpec) *Flow {
	if spec.Work < 0 || math.IsNaN(spec.Work) {
		panic(fmt.Sprintf("fluid: flow %q work %v must be non-negative", spec.Name, spec.Work))
	}
	if len(spec.Uses) == 0 && spec.Cap <= 0 {
		panic(fmt.Sprintf("fluid: flow %q has no resources and no rate cap", spec.Name))
	}
	if spec.Priority < 0 {
		panic(fmt.Sprintf("fluid: flow %q has negative priority", spec.Name))
	}
	for _, u := range spec.Uses {
		if u.Weight <= 0 {
			panic(fmt.Sprintf("fluid: flow %q has non-positive weight on %q", spec.Name, u.Resource.name))
		}
		if u.Resource.model != m {
			panic(fmt.Sprintf("fluid: flow %q uses resource %q from another model", spec.Name, u.Resource.name))
		}
	}
	pri := spec.Priority
	if pri == 0 {
		pri = 1
	}
	m.advance()
	var f *Flow
	if n := len(m.freeFlows); n > 0 {
		f = m.freeFlows[n-1]
		m.freeFlows[n-1] = nil
		m.freeFlows = m.freeFlows[:n-1]
	} else {
		f = &Flow{model: m}
	}
	f.name = spec.Name
	f.remaining = spec.Work
	f.total = spec.Work
	f.rate = 0
	f.cap = spec.Cap
	f.priority = pri
	f.onDone = spec.OnDone
	f.started = m.k.Now()
	f.finished = false
	f.pooled = false
	f.renewable = spec.Renewable
	f.mark = 0
	f.version = 0
	f.uses, f.usePos = m.newFlowArrays(spec.Uses)
	pre, scanNext := m.version, m.scanNext
	m.attach(f)
	if m.startIsolated(f, scanNext) || spec.Work > 0 && m.startReused(f, pre) {
		return f
	}
	m.dirtyFlows = append(m.dirtyFlows, f)
	if spec.Work == 0 {
		// Due at once: collect it now, hold or not (see Hold).
		m.resolveNow()
	} else {
		m.resolve()
	}
	return f
}

// newFlowArrays takes a pooled uses/usePos pair (or makes fresh ones)
// and copies spec uses into it.
func (m *Model) newFlowArrays(uses []Use) ([]Use, []int) {
	var u []Use
	var p []int
	if n := len(m.freeUses); n > 0 {
		u = m.freeUses[n-1]
		m.freeUses = m.freeUses[:n-1]
		p = m.freePos[len(m.freePos)-1]
		m.freePos = m.freePos[:len(m.freePos)-1]
	}
	u = append(u[:0], uses...)
	for len(p) < len(uses) {
		p = append(p, 0)
	}
	return u, p[:len(uses)]
}

// SetCap changes a flow's private rate bound and re-solves its
// component. A running compute kernel's cap changes when its core's
// frequency changes.
func (m *Model) SetCap(f *Flow, cap float64) {
	if f.finished {
		return
	}
	if len(f.uses) == 0 && cap <= 0 {
		panic(fmt.Sprintf("fluid: flow %q would have no resources and no cap", f.name))
	}
	if f.cap == cap {
		return
	}
	m.advance()
	f.cap = cap
	m.bump()
	m.dirtyFlows = append(m.dirtyFlows, f)
	m.resolve()
}

// Recycle returns a finished (completed or cancelled) flow's storage to
// the model, to be handed out again by a later Start. Only the flow's
// owner may recycle it, and only once nothing else — completion hooks,
// frequency-rescaling bookkeeping, a crash-path waiter — can still
// reach it: the next Start reincarnates the struct as a different flow.
// Recycling an unfinished or already-recycled flow is a no-op; a parked
// flow is materialized first.
func (m *Model) Recycle(f *Flow) {
	if f == nil || f.model != m {
		return
	}
	if f.parked {
		m.materialize()
	}
	if !f.finished || f.index >= 0 || f.pooled {
		return
	}
	f.pooled = true
	f.renewable = false
	f.onDone = nil
	f.name = ""
	m.freeFlows = append(m.freeFlows, f)
}

// Reset rewinds an idle model (no active flows) to its initial clock
// state, keeping its resources — with their dense ids and creation
// order, which the solver's arithmetic order depends on — and all
// recycled storage. Resource capacities are NOT restored: the caller
// re-applies them from its spec (frequency scaling may have moved
// them). Must be called before the (reset) kernel schedules anything.
func (m *Model) Reset() {
	if len(m.flows) != 0 {
		panic("fluid: Reset with active flows")
	}
	m.next.Stop()
	m.lastUpdate = 0
	m.dirtyFlows = m.dirtyFlows[:0]
	m.dirtyRes = m.dirtyRes[:0]
	m.done = m.done[:0]
	m.solves = 0
	m.skips = 0
	m.reuses = 0
	m.holds = 0
	m.pending = false
	m.settledAt = -1
	m.scanNext = -1
	m.scans = 0
	m.folds = 0
	m.unpark()
	m.memo.forget()
}

// Cancel removes a flow without running its completion callback, and
// re-solves the allocation of its component; the flow of the last start
// leaves by restoring the rates from before it (see undo), and an
// isolated flow without a solve (see isolated).
func (m *Model) Cancel(f *Flow) {
	if f.finished {
		return
	}
	m.advance()
	if m.quiet() && m.settled() {
		if m.undo(f) {
			done, next := m.collectDone()
			m.finish(done, next, false)
			return
		}
		if m.removeIsolated(f) {
			_, next := m.collectDone() // none due: the model was settled
			m.skipped(next)
			return
		}
	}
	for _, u := range f.uses {
		m.dirtyRes = append(m.dirtyRes, u.Resource)
	}
	m.remove(f)
	f.finished = true
	m.resolve()
}

// attach appends f to the flow list and to its resources' adjacency
// lists.
func (m *Model) attach(f *Flow) {
	f.index = len(m.flows)
	for i, u := range f.uses {
		r := u.Resource
		f.usePos[i] = len(r.flows)
		r.flows = append(r.flows, resUse{f, i})
	}
	m.flows = append(m.flows, f)
	m.bump()
}

// remove unlinks f from the flow list and from its resources'
// adjacency lists, recycling its bookkeeping arrays.
func (m *Model) remove(f *Flow) {
	m.detach(f)
	m.drop(f)
}

// drop recycles the bookkeeping arrays of a detached flow and zeroes its
// rate.
func (m *Model) drop(f *Flow) {
	m.freeUses = append(m.freeUses, f.uses[:0])
	m.freePos = append(m.freePos, f.usePos[:0])
	f.uses, f.usePos = nil, nil
	f.rate = 0
}

// detach unlinks f from the flow list and from its resources' adjacency
// lists; it keeps f's uses and rate.
//
// The global list uses swap-with-last, exactly like the original
// solver: solve order (and therefore the last-ulp floating-point
// behaviour the golden files record) depends on the relative order of
// the surviving flows. A swap moves the last flow earlier, which can
// permute the order *within* that flow's component — so the moved flow
// is marked dirty and its component re-solved, keeping every cached
// component bit-identical to what a full re-solve would compute.
func (m *Model) detach(f *Flow) {
	for i, u := range f.uses {
		r := u.Resource
		pos := f.usePos[i]
		last := len(r.flows) - 1
		moved := r.flows[last]
		r.flows[pos] = moved
		moved.f.usePos[moved.idx] = pos
		r.flows[last] = resUse{}
		r.flows = r.flows[:last]
	}
	lastIdx := len(m.flows) - 1
	g := m.flows[lastIdx]
	m.flows[f.index] = g
	g.index = f.index
	m.flows[lastIdx] = nil
	m.flows = m.flows[:lastIdx]
	f.index = -1
	m.bump()
	if g != f {
		m.dirtyFlows = append(m.dirtyFlows, g)
	}
}

// advance brings the model to the current instant before an operation:
// it materializes parked flows, then accrues progress from lastUpdate to
// now at the current rates.
func (m *Model) advance() {
	m.materialize()
	now := m.k.Now()
	if now == m.lastUpdate {
		return
	}
	dt := now.Sub(m.lastUpdate).Seconds()
	m.lastUpdate = now
	m.scanNext = -1
	for _, f := range m.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// epsilon below which remaining work counts as done, relative to the
// flow's rate: anything that would complete within a fraction of a
// nanosecond is complete.
const completeEps = 1e-10 // seconds

// settleEps is how far from its end every flow must be, at its current
// rate, for a held mutation to defer its solve: one nanosecond, ten
// times completeEps. A solve a hold skips could only have completed a
// flow that far out by raising its rate tenfold (see Hold).
const settleEps = 1e-9 // seconds

// resolve brings the allocation up to date after a mutation: at once
// (resolveNow), or — while the model is held and no flow is within
// settleEps of its end — by marking the solve pending.
func (m *Model) resolve() {
	if m.holds > 0 && m.settled() {
		m.pending = true
		return
	}
	m.resolveNow()
}

// settled reports whether every flow is at least settleEps from its end
// at its current rate. A re-solve that leaves no flow that close marks
// the model settled at its instant; otherwise one scan decides, and its
// answer holds for the rest of the instant, since the mutations a hold
// defers neither add a nearly done flow (a zero-work Start re-solves at
// once) nor move time or rates.
func (m *Model) settled() bool {
	now := m.k.Now()
	if m.settledAt == now {
		return true
	}
	for _, f := range m.flows {
		if endsWithin(f, settleEps) {
			return false
		}
	}
	m.settledAt = now
	return true
}

// resolveNow recomputes the rates of every dirty component, fires
// completions due now, and schedules the next completion event.
func (m *Model) resolveNow() { m.resolveKeeping(false) }

// resolveKeeping is resolveNow; with keepPlace the completion timer
// keeps its place in the event order (see materialize).
func (m *Model) resolveKeeping(keepPlace bool) {
	m.pending = false
	m.solveDirty()
	done, next := m.collectDone()
	m.finish(done, next, keepPlace)
}

// finish ends a re-solve from its post-solve scan: the flows due and the
// time to the next completion. It removes the due flows and re-solves
// their components, scanning again, until a scan finds none due, then
// settles with that scan's next completion.
func (m *Model) finish(done []*Flow, next float64, keepPlace bool) {
	// Completions may themselves add/remove flows from callbacks that run
	// as separate events, so here we only: solve, complete-now, schedule.
	for len(done) > 0 {
		for _, f := range done {
			// The freed bandwidth redistributes inside f's component(s).
			for _, u := range f.uses {
				m.dirtyRes = append(m.dirtyRes, u.Resource)
			}
			m.remove(f)
			f.finished = true
			if f.onDone != nil {
				// Run as an event so callbacks observe a consistent model
				// and cannot recurse into resolve mid-loop.
				m.k.At(m.k.Now(), f.onDone)
			}
		}
		m.solveDirty()
		done, next = m.collectDone()
	}
	m.settle(next, keepPlace)
}

// settle ends a re-solve, or a skipped one, whose final scan found no
// flow due and the next completion next seconds away: it runs the
// differential oracle, arms the completion timer and notes whether the
// model is settled.
func (m *Model) settle(next float64, keepPlace bool) {
	if m.differential && !m.reference {
		// Check at quiescence, not after each scoped solve: mid-loop, a
		// done-but-uncollected flow in an untouched component transiently
		// keeps its old rate (the reference zeroes it a loop iteration
		// early), and both states converge once the flow is removed.
		m.checkOracle()
	}
	m.settledAt = -1
	m.schedule(next, keepPlace)
	if next >= settleEps {
		m.settledAt = m.k.Now()
	}
}

// skipIsolated lets Start, Cancel and the completion timer skip the
// re-solve of an isolated flow. It is a variable only so tests can force
// the full path.
var skipIsolated = true

// slackMargin is the share of its capacity a resource must keep free,
// with a flow at its rate, for the flow not to bind it (see isolated):
// far above the rounding error of a solve, which leaves a bottleneck
// saturated to within a few ulps.
const slackMargin = 1e-9

// quiet reports whether the rates in hand are those a solve of the
// current state computes, so that an isolated mutation may skip its
// solve and a recorded one may be reused.
func (m *Model) quiet() bool {
	return !m.reference && m.holds == 0 && !m.pending &&
		len(m.dirtyFlows) == 0 && len(m.dirtyRes) == 0 && len(m.parked) == 0
}

// skipped ends a mutation that skipped its solve, with the next
// completion next seconds away.
func (m *Model) skipped(next float64) {
	m.skips++
	m.settle(next, false)
}

// startIsolated gives the just-attached flow f the rate progressive
// filling would fix it at, without a solve, if f is isolated at that
// rate and runs at least settleEps; it reports whether it did. scanNext
// is the model's scanNext from just before f was attached.
//
// Its cost follows f's path, not the flow count. f is the tail of the
// flow list and crosses each resource once, so its term comes last in
// the in-order sum resum would recompute: it is added to each load. No
// other flow's work or rate moved since the scan that left scanNext, so
// the scan it would run finds the smaller of scanNext and f's own
// completion (see DESIGN.md §4, "Folding an isolated start").
func (m *Model) startIsolated(f *Flow, scanNext float64) bool {
	if !skipIsolated || !m.quiet() || !m.settled() {
		return false
	}
	rate, ok := isolatedRate(f)
	if !ok || f.remaining/rate < settleEps || !m.isolated(f, rate, false) {
		return false
	}
	f.rate = rate
	for _, u := range f.uses {
		u.Resource.load += u.Weight * rate
	}
	next := scanNext
	if next < 0 {
		_, next = m.collectDone() // none due: settled, and f runs settleEps
	} else {
		next = min(next, f.remaining/rate)
		m.scanNext = next
		m.folds++
	}
	m.skipped(next)
	return true
}

// removeIsolated detaches f without a solve if f and the flow its
// removal moves are isolated at their rates, and reports whether it did.
// The caller has checked that the model is quiet.
func (m *Model) removeIsolated(f *Flow) bool {
	if !skipIsolated {
		return false
	}
	g := m.flows[len(m.flows)-1]
	if !m.isolated(f, f.rate, true) || g != f && !m.isolated(g, g.rate, true) {
		return false
	}
	m.detach(f)
	m.dirtyFlows = m.dirtyFlows[:0] // the moved flow g keeps its rate
	m.resum(f)
	if g != f {
		m.resum(g)
	}
	m.drop(f)
	f.finished = true
	return true
}

// isolated reports whether f is isolated at rate: it crosses no
// resource twice, and every resource it crosses is its alone or keeps
// slackMargin of its capacity free with f at rate. counted says whether
// the loads in hand count f already.
//
// Starting, cancelling or completing an isolated flow moves no other
// flow's rate, bit for bit: progressive filling picks a resource as a
// bottleneck only at the level that saturates it, so a resource with
// slack is never picked, with the flow or without it, and its avail/wsum
// feed only its own candidate value. Every other resource sees the same
// operations in the same order, and a resource the flow alone crosses
// fixes only that flow. The flow's own rate is its cap or its tightest
// private share (see isolatedRate). Such a mutation therefore skips the
// solve: it sets the flow's rate, brings the loads of the resources it
// touched to the solver's in-order sums (resum; a start adds its own
// term at the tail), and ends like a solve (settle), so the completion
// timer is re-armed from the same place in the event order.
//
// It skips only when the rates in hand are a solve's of the current
// state and no flow is due, so that a solve would collect nothing:
// outside reference mode, with no hold open, nothing pending, no dirty
// seed, no parked flow, and the model settled (for a completion, exactly
// one flow due, the completing one). A started flow must run at least
// settleEps. A removal swap-moves the last flow into the freed slot,
// which reorders the solver's sums on that flow's resources, so the
// moved flow must be isolated too (or be the flow removed).
func (m *Model) isolated(f *Flow, rate float64, counted bool) bool {
	m.epoch++
	for _, u := range f.uses {
		r := u.Resource
		if r.mark == m.epoch {
			return false // crosses r twice
		}
		r.mark = m.epoch
		if len(r.flows) == 1 {
			continue
		}
		load := r.load
		if !counted {
			load += u.Weight * rate
		}
		if r.capacity-load < slackMargin*r.capacity {
			return false
		}
	}
	return true
}

// isolatedRate returns the rate progressive filling fixes f at when no
// resource another flow crosses binds it: its normalised cap, or the
// tightest share of a resource f alone crosses (avail/wsum there is
// capacity/(weight·priority)), the cap only if strictly below, as in the
// fill's capMin < fair, and scaled and clamped as fix does. ok is false
// when neither bounds f: a shared resource does, and f is not isolated.
func isolatedRate(f *Flow) (rate float64, ok bool) {
	fair := math.Inf(1)
	for _, u := range f.uses {
		if r := u.Resource; len(r.flows) == 1 {
			fair = min(fair, r.capacity/(u.Weight*f.priority))
		}
	}
	if f.cap > 0 {
		if c := f.cap / f.priority; c < fair {
			fair = c
		}
	}
	if math.IsInf(fair, 1) {
		return 0, false
	}
	rate = fair * f.priority
	if f.cap > 0 && rate > f.cap {
		rate = f.cap
	}
	return rate, true
}

// resum recomputes the loads of the resources f crosses as solveScoped
// sums them: over the flows in flow-list order, and each flow's uses in
// order.
func (m *Model) resum(f *Flow) {
	for _, u := range f.uses {
		r := u.Resource
		keys := m.sumKeys[:0]
		for _, ru := range r.flows {
			keys = append(keys, int64(ru.f.index)<<32|int64(ru.idx))
		}
		slices.Sort(keys)
		load := 0.0
		for _, key := range keys {
			g := m.flows[key>>32]
			load += g.uses[key&(1<<32-1)].Weight * g.rate
		}
		r.load = load
		m.sumKeys = keys
	}
}

// endsWithin reports whether f would complete within secs at its
// current rate (or has no work left).
func endsWithin(f *Flow, secs float64) bool {
	return f.remaining <= 0 || (f.rate > 0 && f.remaining/f.rate < secs)
}

// clears reports whether work lasts at least settleEps at f's ceiling
// rate. The cap bounds the ceiling, so a cap that clears settleEps alone
// spares the walk over f's resources.
func clears(f *Flow, work float64) bool {
	if f.cap > 0 && work >= settleEps*f.cap {
		return true
	}
	return work >= settleEps*ceiling(f)
}

// ceiling is the highest rate any allocation could give f under the
// current capacities: its cap, and no resource's capacity over f's
// weight on it.
func ceiling(f *Flow) float64 {
	c := math.Inf(1)
	if f.cap > 0 {
		c = f.cap
	}
	for _, u := range f.uses {
		c = min(c, u.Resource.capacity/u.Weight)
	}
	return c
}

// park is the completion timer's path for loop slices ending: it
// completes the flows due now, all of them renewable, like a plain
// completion — they leave the flow list in the same order and their
// OnDone events are queued in the same order — but it keeps their uses
// and rates and leaves the re-solve pending, for their owners to Renew
// them at this instant as the sequential loops would start their next
// slices afresh. The pending solve runs if the model is used before
// the last renewal (see materialize), or at the last renewal, when it
// solves the flow set the restarts would have left: one solve where the
// sequential sequence runs one for the completion and one per restart.
// When the due flows are the tail of the flow list, the renewals
// restore the list and the solve is skipped: the flow set, its order and
// every constraint are back to what the rates in hand were solved for.
//
// Every re-solve left out this way solves a state in between, and could
// only have changed what is observed by collecting a flow at this
// instant. So the completion parks only if every other flow is at least
// settleEps from its end, and every due flow's next run takes at least
// settleEps, even at their ceiling rates — the highest rate any of those
// solves could give them (see Hold for the boundary's census and
// frequency steps).
func (m *Model) park() bool {
	if len(m.dirtyFlows) > 0 || len(m.dirtyRes) > 0 {
		return false
	}
	// One scan, as collectDone's: the due flows, and the next completion
	// of the others, which stay.
	due := m.done[:0]
	next := math.Inf(1)
	for _, f := range m.flows {
		t := math.Inf(1)
		if f.rate > 0 {
			t = f.remaining / f.rate
		}
		if f.remaining <= 0 || t < completeEps {
			if !f.renewable || !clears(f, f.total) {
				return false
			}
			due = append(due, f)
		} else if !clears(f, f.remaining) {
			return false
		} else if t < next {
			next = t
		}
	}
	m.done = due
	if len(due) == 0 {
		return false
	}
	now := m.k.Now()
	m.parkTail = due[0].index == len(m.flows)-len(due)
	m.parkVersion = m.version
	m.parked = append(m.parked[:0], due...)
	m.renewed = 0
	m.parkedAt = now
	for _, f := range m.parked {
		for _, u := range f.uses {
			m.dirtyRes = append(m.dirtyRes, u.Resource)
		}
		m.detach(f)
		f.parked = true
		f.finished = true
		if f.onDone != nil {
			m.k.At(now, f.onDone)
		}
	}
	// The completion arms the timer here: take its place in the event
	// order, for the other flows at the rates in hand.
	m.next.Reserve()
	m.schedule(next, true)
	m.settledAt = now
	return true
}

// Renew starts a parked flow's next run: the same uses, cap and
// priority, its full work again from now, appended to the flow list as
// a restart would append it, at the rate it had. It returns false, and
// does nothing, unless f is the next flow in park order still parked: a
// flow that was materialized, or never parked, must be started afresh.
// An owner whose next run needs another cap must start it afresh too.
//
// Renewing costs no solve, but for the last renewal of a park whose
// flows were not the tail of the flow list, which runs the one solve
// the restarts need (see park). The completion timer is re-armed from a
// new place in the event order, as the restart's solve re-arms it: for
// the earlier of its instant and f's end.
func (m *Model) Renew(f *Flow) bool {
	if m.renewed == len(m.parked) || m.parked[m.renewed] != f {
		return false
	}
	now := m.k.Now()
	if now != m.parkedAt {
		panicParkedAcrossTime()
	}
	m.renewed++
	last := m.renewed == len(m.parked)
	if last {
		m.unpark()
	}
	f.parked = false
	f.finished = false
	f.remaining = f.total
	f.started = now
	m.attach(f)
	at, armed := m.next.When()
	if t := f.remaining / f.rate; t <= horizon {
		if end := now.Add(sim.DurationOfSeconds(t)); !armed || end < at {
			at, armed = end, true
		}
	}
	if armed {
		m.next.Arm(at)
	}
	if last {
		if m.parkTail {
			// The list is back to the one the rates were solved for.
			m.dirtyFlows = m.dirtyFlows[:0]
			m.dirtyRes = m.dirtyRes[:0]
			m.version = m.parkVersion
		} else {
			m.resolveNow()
		}
	}
	return true
}

// materialize completes the parked flows not renewed yet as the plain
// completion did — it drops them — and runs the solve left pending,
// which the completion and the renewals so far would have run, with the
// completion timer keeping the place in the event order of its last
// arming. Parked flows must not span simulated time; every operation on
// the model that could observe them or their effect on the rates
// materializes them first.
func (m *Model) materialize() {
	if len(m.parked) == 0 {
		return
	}
	if m.k.Now() != m.parkedAt {
		panicParkedAcrossTime()
	}
	for _, f := range m.parked[m.renewed:] {
		f.parked = false
		m.drop(f)
	}
	m.unpark()
	m.resolveKeeping(true)
}

// unpark empties the park list.
func (m *Model) unpark() {
	clear(m.parked)
	m.parked = m.parked[:0]
	m.renewed = 0
}

func panicParkedAcrossTime() {
	panic("fluid: a parked flow spanned simulated time (its owner neither renewed it nor called the model at its completion)")
}

// collectDone returns the flows whose remaining work is (numerically)
// zero, in a scratch slice reused across calls, and the time in seconds
// to the earliest completion of the others at their current rates (+Inf
// if none progresses). When no flow is due that is the instant schedule
// arms the timer for: one scan after a solve serves both.
func (m *Model) collectDone() ([]*Flow, float64) {
	m.scans++
	m.done = m.done[:0]
	next := math.Inf(1)
	for _, f := range m.flows {
		if f.remaining <= 0 {
			m.done = append(m.done, f)
		} else if f.rate > 0 {
			if t := f.remaining / f.rate; t < completeEps {
				m.done = append(m.done, f)
			} else if t < next {
				next = t
			}
		}
	}
	m.scanNext = -1
	if len(m.done) == 0 {
		m.scanNext = next
	}
	return m.done, next
}

// horizon bounds the completions the timer is armed for, in seconds of
// simulated time (≈3 years). Effectively-never completions (e.g.
// quasi-infinite background flows) are not scheduled at all; they are
// cancelled explicitly.
const horizon = 1e8

// schedule arms the next-completion event next seconds from now, the
// earliest completion at the current rates (as collectDone finds it), or
// stops it if that is beyond horizon. With keepPlace the timer is
// re-armed in its place in the event order (sim.Timer.Rearm). Either
// way a pending event moves in place: the timer stops only when nothing
// is due within horizon.
func (m *Model) schedule(next float64, keepPlace bool) {
	if next > horizon {
		m.next.Stop()
		return
	}
	at := m.k.Now().Add(sim.DurationOfSeconds(next))
	if keepPlace {
		m.next.Rearm(at)
	} else {
		m.next.Arm(at)
	}
}

// solveDirty re-solves the union of the connected components reachable
// from the dirty seeds accumulated since the last solve. With no seeds
// it is a no-op: a completion event, for example, changes no
// constraint until the finished flow is removed.
func (m *Model) solveDirty() {
	if m.reference {
		m.dirtyFlows = m.dirtyFlows[:0]
		m.dirtyRes = m.dirtyRes[:0]
		m.solveReferenceInPlace()
		return
	}
	if len(m.dirtyFlows) == 0 && len(m.dirtyRes) == 0 {
		return
	}
	m.collectComponent()
	m.solveScoped()
}

// heapMinRes is the component size (in resources) from which
// progressive filling selects bottlenecks from a heap (fillOrdered)
// instead of rescanning the component every round (fillScan). Both
// paths fix the same flows in the same order, so the cutoff moves
// speed, never results; it is a variable only so tests can force
// either path.
var heapMinRes = 64

// collectComponent walks the resource/flow bipartite graph from the
// dirty seeds and fills compFlows/compRes with the touched component(s)
// in canonical order: flows in global flow-list order, resources in
// creation order — the orders the whole-model solver iterates in, so
// the scoped solve below replays its exact arithmetic.
//
// The walk appends members in discovery order (compRes doubles as its
// work queue). Canonical order is then read off a bitset of the
// members' dense ids (Flow.index, Resource.id): the walk over its set
// bits in ascending order costs the component's size plus one word per
// 64 ids of the range the members span, with no comparison sort and no
// scan of the model's lists.
//
// Flows with no remaining work are members (their rate must drop to
// zero like a full solve would) but do not propagate connectivity:
// they contribute nothing to any resource constraint.
func (m *Model) collectComponent() {
	m.epoch++
	epoch := m.epoch
	flows, res := m.compFlows[:0], m.compRes[:0]
	for _, r := range m.dirtyRes {
		if r.mark != epoch {
			r.mark = epoch
			res = append(res, r)
		}
	}
	for _, f := range m.dirtyFlows {
		if f.index >= 0 && f.mark != epoch { // not removed after being marked dirty, nor seen
			flows, res = visitFlow(f, epoch, flows, res)
		}
	}
	m.dirtyFlows = m.dirtyFlows[:0]
	m.dirtyRes = m.dirtyRes[:0]
	for i := 0; i < len(res); i++ {
		for _, ru := range res[i].flows {
			if ru.f.mark != epoch {
				flows, res = visitFlow(ru.f, epoch, flows, res)
			}
		}
	}

	if len(flows) > 1 || len(res) > 1 {
		s := scratchPool.Get().(*solveScratch)
		ids := &s.ids
		ids.reset(len(m.flows))
		for _, f := range flows {
			ids.add(f.index)
		}
		flows = takeOrdered(ids, flows[:0], m.flows)
		ids.reset(len(m.resources))
		for _, r := range res {
			ids.add(r.id)
		}
		res = takeOrdered(ids, res[:0], m.resources)
		scratchPool.Put(s)
	}
	m.compFlows, m.compRes = flows, res
	if onCollect != nil {
		onCollect(m)
	}
}

// onCollect, when set, is called after each collectComponent. Tests
// only.
var onCollect func(m *Model)

// idSet is a set of dense ids held as a bitset. Only the words from lo
// to hi can hold set bits, and takeOrdered clears each word it walks,
// so an empty set is all zeros and a pooled one needs no clearing.
type idSet struct {
	words  []uint64
	lo, hi int
}

// reset readies the set, which must be empty, for ids below n.
func (b *idSet) reset(n int) {
	if w := (n + 63) >> 6; len(b.words) < w {
		b.words = make([]uint64, w)
	}
	b.lo, b.hi = len(b.words), -1
}

// add puts id in the set.
func (b *idSet) add(id int) {
	w := id >> 6
	b.words[w] |= 1 << (id & 63)
	b.lo, b.hi = min(b.lo, w), max(b.hi, w)
}

// takeOrdered appends all[id] for each id in b, in ascending order, to
// out, and clears the words it walks, leaving b empty for a reset.
func takeOrdered[T any](b *idSet, out, all []T) []T {
	for w := b.lo; w <= b.hi; w++ {
		for x := b.words[w]; x != 0; x &= x - 1 {
			out = append(out, all[w<<6|bits.TrailingZeros64(x)])
		}
		b.words[w] = 0
	}
	return out
}

// visitFlow marks f as a member of the component being collected,
// appends it to flows, and appends to res, the walk's queue, each
// resource of f not seen yet.
func visitFlow(f *Flow, epoch uint64, flows []*Flow, res []*Resource) ([]*Flow, []*Resource) {
	f.mark = epoch
	flows = append(flows, f)
	if f.remaining > 0 {
		for _, u := range f.uses {
			if r := u.Resource; r.mark != epoch {
				r.mark = epoch
				res = append(res, r)
			}
		}
	}
	return flows, res
}

// solveScoped runs weighted progressive filling over the collected
// component. After it, every component flow has its max-min fair rate
// and every component resource has its load recomputed; the rest of
// the model is untouched.
//
// Priorities are handled by normalisation: for each flow define the
// normalised rate ρ_f = rate_f / priority_f. Every resource constraint
// becomes Σ (w·priority)·ρ ≤ C and every cap becomes ρ ≤ cap/priority,
// so plain max-min progressive filling over ρ yields the weighted,
// prioritised allocation.
func (m *Model) solveScoped() {
	m.solves++
	for _, r := range m.compRes {
		r.load = 0
		m.avail[r.id] = r.capacity
		m.wsum[r.id] = 0
	}
	nf := len(m.compFlows)
	if nf == 0 {
		return
	}
	if cap(m.fixed) < nf {
		m.fixed = make([]bool, nf)
	}
	fixed := m.fixed[:nf]
	remaining := 0
	capMin := math.Inf(1) // the smallest normalised cap, for fillScan's first round
	for i, f := range m.compFlows {
		f.rate = 0
		if f.remaining <= 0 {
			// Already-done flows (awaiting collection) consume nothing.
			fixed[i] = true
			continue
		}
		fixed[i] = false
		for _, u := range f.uses {
			m.wsum[u.Resource.id] += u.Weight * f.priority
		}
		if f.cap > 0 {
			if c := f.cap / f.priority; c < capMin {
				capMin = c
			}
		}
		remaining++
	}
	if remaining > 0 && len(m.compRes) >= heapMinRes {
		m.fillOrdered(fixed, remaining)
	} else {
		m.fillScan(fixed, remaining, capMin)
	}
	for _, f := range m.compFlows {
		for _, u := range f.uses {
			u.Resource.load += u.Weight * f.rate
		}
	}
}

// fillScan runs the progressive-filling rounds by rescanning the
// component's resources in every round: the cheapest way for the small
// components of one node's resources. capMin is the smallest normalised
// cap of an unfixed flow, which the first round uses as it stands. The
// rounds after it take the smallest cap from a capList, as in
// fillOrdered: in a task-runtime world every idle worker's poll flow has
// its own cap, and rescanning every capped flow in every round made the
// filling quadratic in the flow count. Most solves end in one round, so
// the list is sorted only when a second round starts.
func (m *Model) fillScan(fixed []bool, remaining int, capMin float64) {
	var caps capList
	capRounds := 0
	for round := 0; remaining > 0; round++ {
		if round > 0 {
			if round == 1 {
				caps = m.sortCaps(m.caps[:0], fixed)
			}
			capMin = caps.min(fixed)
		}
		// Candidate fair normalised rate: the tightest bottleneck.
		bottleneck := (*Resource)(nil)
		fair := math.Inf(1)
		for _, r := range m.compRes {
			w := m.wsum[r.id]
			if w <= 0 {
				continue
			}
			c := m.avail[r.id] / w
			if c < fair {
				fair = c
				bottleneck = r
			}
		}
		if capMin < fair {
			capRounds++
		}
		switch {
		case capMin < fair && round == 0:
			remaining -= m.fixAtCap(capMin, fixed)
		case capMin < fair:
			remaining -= m.fixCaps(nil, &caps, capMin, fixed)
		case bottleneck != nil:
			// Fix every unfixed flow using the bottleneck at the fair rate.
			left := remaining
			for i, f := range m.compFlows {
				if fixed[i] {
					continue
				}
				uses := false
				for _, u := range f.uses {
					if u.Resource == bottleneck {
						uses = true
						break
					}
				}
				if !uses {
					continue
				}
				m.fix(f, fair)
				fixed[i] = true
				remaining--
			}
			if remaining == left {
				// Every flow on the bottleneck is fixed, but rounding in
				// wsum's additions and subtractions left it a weight just
				// above fix's 1e-12 clamp, with no availability left. It is
				// drained, and leaves the filling as at the clamp; else this
				// round would repeat forever. A filling that ends never
				// meets such a round, so no result it computes moves.
				// fillOrdered and the reference solver do the same.
				m.wsum[bottleneck.id] = 0
			}
		default:
			m.zeroUnfixed(fixed)
			remaining = 0
		}
	}
	if caps.ent != nil {
		m.caps = caps.ent
	}
	if onFillScan != nil {
		onFillScan(capRounds)
	}
}

// onFillScan, when set, is told how many rounds of each fillScan fixed
// flows at their caps. Tests only.
var onFillScan func(capRounds int)

// fixAtCap fixes, in compFlows order, every unfixed flow whose normalised
// cap is capMin, the smallest, and returns how many it fixed: the flows
// fixCaps fixes, in its order, without a sorted list.
func (m *Model) fixAtCap(capMin float64, fixed []bool) int {
	n := 0
	for i, f := range m.compFlows {
		if !fixed[i] && f.cap > 0 && f.cap/f.priority <= capMin {
			m.fix(f, capMin)
			fixed[i] = true
			n++
		}
	}
	return n
}

// zeroUnfixed ends progressive filling when there is no bottleneck and
// no cap below it: the flows left are those whose every resource already
// drained to zero availability, and their fair share is zero. (Flows
// with neither resources nor caps were rejected at Start.)
func (m *Model) zeroUnfixed(fixed []bool) {
	for i, f := range m.compFlows {
		if !fixed[i] {
			f.rate = 0
			fixed[i] = true
		}
	}
}

// solveScratch is the working storage of collectComponent's canonical
// order and of fillOrdered. It comes from a shared pool rather than
// from the model: fabric worlds are built fresh for every run, and
// per-model arrays sized to the model would be allocated again with
// each of them. It holds no pointers.
type solveScratch struct {
	ids   idSet
	heap  resHeap
	caps  []capEntry
	batch []int32
}

var scratchPool = sync.Pool{New: func() any { return new(solveScratch) }}

// capEntry is a capped flow's normalised cap and compFlows position.
type capEntry struct {
	key float64
	pos int32
}

// capList holds the capped flows of a component, unfixed when it was
// made, sorted by (normalised cap, position). Flows only get fixed
// during filling, so the smallest cap of an unfixed flow is the first
// unfixed entry, found by a cursor that never moves back: entries
// before next are fixed.
type capList struct {
	ent  []capEntry
	next int
}

// insertionMaxCaps is the list length up to which sortCaps sorts by
// insertion: the lists of node-sized components are short, and a
// generic sort of 48 entries costs several times an insertion sort.
const insertionMaxCaps = 64

// sortCaps makes the capList of the component's unfixed capped flows in
// ent, whose storage it reuses.
func (m *Model) sortCaps(ent []capEntry, fixed []bool) capList {
	for i, f := range m.compFlows {
		if !fixed[i] && f.cap > 0 {
			ent = append(ent, capEntry{f.cap / f.priority, int32(i)})
		}
	}
	if len(ent) > insertionMaxCaps {
		slices.SortFunc(ent, func(a, b capEntry) int {
			return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.pos, b.pos))
		})
		return capList{ent: ent}
	}
	// Entries come in position order, and the insertion sort is stable.
	for i := 1; i < len(ent); i++ {
		x, j := ent[i], i
		for ; j > 0 && x.key < ent[j-1].key; j-- {
			ent[j] = ent[j-1]
		}
		ent[j] = x
	}
	return capList{ent: ent}
}

// min returns the smallest normalised cap of an unfixed flow, +Inf if
// every capped flow is fixed.
func (c *capList) min(fixed []bool) float64 {
	for c.next < len(c.ent) && fixed[c.ent[c.next].pos] {
		c.next++
	}
	if c.next < len(c.ent) {
		return c.ent[c.next].key
	}
	return math.Inf(1)
}

// fixCaps fixes every unfixed flow whose normalised cap is capMin, the
// current minimum, and returns how many it fixed. Their entries are
// contiguous and in compFlows order, the order a scan of the component
// fixes them in. h is fillOrdered's heap, nil for fillScan.
func (m *Model) fixCaps(h *resHeap, c *capList, capMin float64, fixed []bool) int {
	n := 0
	for _, e := range c.ent[c.next:] {
		if e.key > capMin {
			break
		}
		if !fixed[e.pos] {
			m.fixOrdered(h, m.compFlows[e.pos], capMin)
			fixed[e.pos] = true
			n++
		}
	}
	return n
}

// fillOrdered runs the same progressive-filling rounds as fillScan — the
// same thresholds, the same flows fixed in each round, in the same order,
// so the same floating-point operations in the same sequence — without
// rescanning the component in every round:
//
//   - the bottleneck is the root of a heap of the resources with unfixed
//     flows, keyed by (avail/wsum, id); fix re-keys only the resources of
//     the flow it fixes. The scan keeps the first minimum in compRes
//     order, which is id order, hence the id tie-break. A +Inf key is no
//     bottleneck, as in the scan (c < +Inf never holds);
//   - the smallest normalised cap comes from a capList, as in fillScan;
//   - the flows crossing the bottleneck come from its adjacency list,
//     sorted back into compFlows order before they are fixed;
//   - a resource that can never be a round's bottleneck (see neverBinds)
//     stays out of the heap: the scan passes it over in every round, so
//     the heap need not rank it.
//
// Each round costs O(log n) per resource touched instead of O(n), which
// pays off on the thousands of resources of a fabric component; on a
// node-sized component the scan is faster (see heapMinRes).
func (m *Model) fillOrdered(fixed []bool, remaining int) {
	s := scratchPool.Get().(*solveScratch)
	h := &s.heap
	h.reset(len(m.resources))
	left := 0
	for _, r := range m.compRes {
		w := m.wsum[r.id]
		switch {
		case w <= 0:
			h.absent(r.id)
		case neverBinds(r):
			h.absent(r.id)
			left++
		default:
			h.add(m.avail[r.id]/w, r.id)
		}
	}
	h.init()
	if onFillOrdered != nil {
		onFillOrdered(left)
	}
	for i, f := range m.compFlows {
		f.pos = int32(i)
	}
	caps := m.sortCaps(s.caps[:0], fixed)
	for remaining > 0 {
		var bottleneck *Resource
		fair := math.Inf(1)
		if h.len() > 0 {
			if c, id := h.min(); c < fair {
				fair, bottleneck = c, m.resources[id]
			}
		}
		capMin := caps.min(fixed)
		switch {
		case capMin < fair:
			remaining -= m.fixCaps(h, &caps, capMin, fixed)
		case bottleneck != nil:
			batch := s.batch[:0]
			for _, ru := range bottleneck.flows {
				if !fixed[ru.f.pos] {
					batch = append(batch, ru.f.pos)
				}
			}
			slices.Sort(batch)
			for _, p := range batch {
				if !fixed[p] { // a flow listed twice crosses the resource twice
					m.fixOrdered(h, m.compFlows[p], fair)
					fixed[p] = true
					remaining--
				}
			}
			if len(batch) == 0 {
				// Drained, as in fillScan.
				m.wsum[bottleneck.id] = 0
				h.remove(bottleneck.id)
			}
			s.batch = batch
		default:
			m.zeroUnfixed(fixed)
			remaining = 0
		}
	}
	s.caps = caps.ent
	scratchPool.Put(s)
}

// onFillOrdered, when set, is told how many resources with unfixed
// flows each fillOrdered left out of its heap. Tests only.
var onFillOrdered func(left int)

// Bounds of neverBinds (see there and DESIGN.md §4).
const (
	// neverBindsEps is the relative margin by which a resource's capacity
	// must exceed the most its flows can take.
	neverBindsEps = 1e-9
	// neverBindsSpread bounds uses × (largest / smallest normalised cap)
	// of the resource's flows, so that neverBindsEps covers the rounding
	// in its availability and weight sums.
	neverBindsSpread = 1 << 19
)

// neverBinds reports whether r, which has unfinished flows, can never be
// picked as a bottleneck while its component is filled: every
// unfinished flow crossing it is capped, and its capacity exceeds, by a
// relative margin of neverBindsEps, the load those flows put on it at
// their caps. A fixed flow's rate is at most its cap, so r's key
// avail/wsum stays strictly above the normalised cap of each of its
// unfixed flows, hence above the smallest unfixed cap: every round in
// which r could rank first fixes flows at their caps instead. The
// margin covers the rounding of the bookkeeping when the spread bound
// holds (DESIGN.md §4 has the proof).
func neverBinds(r *Resource) bool {
	sum, n := 0.0, 0
	lo, hi := math.Inf(1), 0.0
	for _, ru := range r.flows {
		f := ru.f
		if f.remaining <= 0 {
			continue
		}
		if f.cap <= 0 {
			return false
		}
		sum += f.uses[ru.idx].Weight * f.cap
		c := f.cap / f.priority
		lo, hi = min(lo, c), max(hi, c)
		n++
	}
	return r.capacity > (1+neverBindsEps)*sum && float64(n)*hi <= neverBindsSpread*lo
}

// fixOrdered is fix plus the heap upkeep: the resources of f in the
// heap get their new key, or leave it once no unfixed flow weighs on
// them (wsum only falls during filling, so a resource never re-enters).
// Resources out of the heap need no upkeep. With no heap (fillScan) it
// is fix alone.
func (m *Model) fixOrdered(h *resHeap, f *Flow, normRate float64) {
	m.fix(f, normRate)
	if h == nil {
		return
	}
	for _, u := range f.uses {
		id := u.Resource.id
		if !h.has(id) {
			continue
		}
		if w := m.wsum[id]; w > 0 {
			h.update(id, m.avail[id]/w)
		} else {
			h.remove(id)
		}
	}
}

// fix assigns the normalised rate to f (scaled by its priority) and
// withdraws its consumption from the progressive-filling bookkeeping.
func (m *Model) fix(f *Flow, normRate float64) {
	f.rate = normRate * f.priority
	if f.cap > 0 && f.rate > f.cap {
		f.rate = f.cap
	}
	for _, u := range f.uses {
		id := u.Resource.id
		m.avail[id] -= u.Weight * f.rate
		if m.avail[id] < 0 {
			m.avail[id] = 0
		}
		m.wsum[id] -= u.Weight * f.priority
		if m.wsum[id] < 1e-12 {
			m.wsum[id] = 0
		}
	}
}

// solveAll marks every flow and resource dirty and re-solves from
// scratch. Benchmarks and equivalence tests; the simulation path never
// needs it.
func (m *Model) solveAll() {
	m.dirtyFlows = append(m.dirtyFlows[:0], m.flows...)
	m.dirtyRes = append(m.dirtyRes[:0], m.resources...)
	m.collectComponent()
	m.solveScoped()
}

// FlowCount returns the number of active flows (diagnostics).
func (m *Model) FlowCount() int { return len(m.flows) }

// Kernel returns the driving simulation kernel.
func (m *Model) Kernel() *sim.Kernel { return m.k }
