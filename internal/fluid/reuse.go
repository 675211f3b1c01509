package fluid

import "sync"

// This file lets a start or a removal reuse a solve the model has
// already made, instead of re-solving a state it has solved before.
//
// The model carries a state version (Model.version): every attach,
// detach, cap change and capacity change takes a fresh value (bump). It goes back to an earlier value only where the state
// provably returns to it: removing the tail flow of an unchanged start
// restores the version from before the start (undo), and the last
// renewal of a tail park restores the version from before the park (see
// Renew). So two equal versions mean the same flow list — the same uses,
// caps and priorities, position by position — and the same capacities.
// In a settled model every flow has work left, and a solve depends on
// nothing else, so a solve of equal versions computes bit-identical
// rates and loads.
//
// The start memo keeps, per model, the last memoSize starts that
// re-solved a quiet, settled model: keyed by the version before the
// start and the started flow's uses, cap and priority, each entry holds
// the version after it and the rates and loads of the start's component
// before and after its solve. A start that finds its entry writes the
// recorded rates and loads back (startReused); a removal of the flow
// such a start added, while the version is still the one it left,
// writes back those from before the start (undo). Both then end as the
// solve would: collectDone, finish, settle. DESIGN.md §4, "Reusing a
// solved state", has the full argument.

// reuseSolves lets starts and removals reuse recorded solves (see
// startReused and undo). It is a variable only so tests can force the
// full path.
var reuseSolves = true

// memoSize is the number of starts a model's memo keeps. The steady
// loops of the paper's figures alternate a few transient flows — a
// message's memcpy, eager and DMA flows — over one background state.
const memoSize = 8

// memoMaxFlows bounds the component a start may record, so that a
// model's memo stays a few kilobytes: the node-sized components the
// paper's worlds churn fit, a fabric transfer's may not.
const memoMaxFlows = 128

// startMemo is a model's memo of starts, replaced in turn.
type startMemo struct {
	ent  [memoSize]memoEntry
	next int
}

// memoPool hands memos to models that record their first start, from
// the models retired before them (see Retire). A world arena keeps a
// reset model, memo included, so the pool serves the models built fresh.
var memoPool = sync.Pool{New: func() any { return new(startMemo) }}

// Retire hands the model's start memo to the models built after it, for
// an owner that is done with the model. A retired model that is used
// again records its starts afresh.
func (m *Model) Retire() {
	if m.memo == nil {
		return
	}
	m.memo.forget()
	memoPool.Put(m.memo)
	m.memo = nil
}

// memoEntry records one start. Flows are named by their position in the
// flow list and resources by id, never by pointer: the entry describes
// the state of version pre (and post), whichever structs fill it.
type memoEntry struct {
	pre, post uint64 // versions before and after the start; post 0 = empty
	cap, pri  float64
	uses      []memoUse
	// rate is the started flow's rate after the solve; flows lists the
	// positions of the other flows of its component, with their rates
	// before (preRate) and after (postRate) it, and res the component's
	// resources with their loads (preLoad, postLoad).
	rate              float64
	flows             []int32
	preRate, postRate []float64
	res               []int32
	preLoad, postLoad []float64
}

// memoUse is one use of a recorded start, by resource id.
type memoUse struct {
	id     int32
	weight float64
}

// bump gives the model a fresh version: its state changed, so the last
// scan's next completion no longer holds.
func (m *Model) bump() {
	m.versions++
	m.version = m.versions
	m.scanNext = -1
}

// Reuses reports how many starts and removals wrote back a recorded
// solve instead of re-solving (see startReused and undo; for performance
// diagnostics). A reuse is not a solve.
func (m *Model) Reuses() uint64 { return m.reuses }

// matches reports whether e records a start of f from version pre.
func (e *memoEntry) matches(pre uint64, f *Flow) bool {
	if e.post == 0 || e.pre != pre || e.cap != f.cap || e.pri != f.priority || len(e.uses) != len(f.uses) {
		return false
	}
	for i, u := range f.uses {
		if e.uses[i].id != int32(u.Resource.id) || e.uses[i].weight != u.Weight {
			return false
		}
	}
	return true
}

// startReused ends the start of f, just attached to a model whose
// version was pre, when the model is quiet and settled and f has work:
// from the memo if it holds the start, else by the solve a start runs,
// which it records. It reports whether it ended the start.
func (m *Model) startReused(f *Flow, pre uint64) bool {
	if !reuseSolves || !m.quiet() || !m.settled() {
		return false
	}
	if m.memo == nil {
		m.memo = memoPool.Get().(*startMemo)
	}
	for i := range m.memo.ent {
		if e := &m.memo.ent[i]; e.matches(pre, f) {
			for j, p := range e.flows {
				m.flows[p].rate = e.postRate[j]
			}
			f.rate = e.rate
			for j, id := range e.res {
				m.resources[id].load = e.postLoad[j]
			}
			m.version = e.post
			f.version = e.post
			m.reuses++
			done, next := m.collectDone()
			m.finish(done, next, false)
			return true
		}
	}
	// The solve resolveNow runs, seeded by f alone, recorded around.
	m.dirtyFlows = append(m.dirtyFlows, f)
	m.collectComponent()
	var e *memoEntry
	if len(m.compFlows) <= memoMaxFlows {
		e = m.memo.victim()
		e.flows, e.preRate = e.flows[:0], e.preRate[:0]
		for _, g := range m.compFlows {
			if g != f {
				e.flows = append(e.flows, int32(g.index))
				e.preRate = append(e.preRate, g.rate)
			}
		}
		e.res, e.preLoad = e.res[:0], e.preLoad[:0]
		for _, r := range m.compRes {
			e.res = append(e.res, int32(r.id))
			e.preLoad = append(e.preLoad, r.load)
		}
	}
	m.solveScoped()
	done, next := m.collectDone()
	if e != nil && len(done) == 0 {
		// A due flow leaves at once, so the state the entry would name
		// never stands: keep only an entry whose solve ends the start.
		e.postRate = e.postRate[:0]
		for _, p := range e.flows {
			e.postRate = append(e.postRate, m.flows[p].rate)
		}
		e.postLoad = e.postLoad[:0]
		for _, id := range e.res {
			e.postLoad = append(e.postLoad, m.resources[id].load)
		}
		e.rate = f.rate
		e.cap, e.pri = f.cap, f.priority
		e.uses = e.uses[:0]
		for _, u := range f.uses {
			e.uses = append(e.uses, memoUse{int32(u.Resource.id), u.Weight})
		}
		e.pre, e.post = pre, m.version
		f.version = m.version
	}
	m.finish(done, next, false)
	return true
}

// victim empties the next entry in turn and returns it.
func (s *startMemo) victim() *memoEntry {
	e := &s.ent[s.next]
	s.next = (s.next + 1) % memoSize
	e.post = 0
	return e
}

// undo removes f without a solve if f is the tail flow a recorded start
// added and the model is still at the version that start left: the
// state is then the one before the start, whose rates and loads the
// entry holds. It reports whether it removed f. The caller has checked
// that the model is quiet and that no other flow is due.
func (m *Model) undo(f *Flow) bool {
	if !reuseSolves || f.version == 0 || f.version != m.version || f.index != len(m.flows)-1 {
		return false
	}
	e := m.memo.recorded(f.version)
	if e == nil {
		return false
	}
	m.detach(f) // the tail: no flow moves
	m.drop(f)
	f.finished = true
	for j, p := range e.flows {
		m.flows[p].rate = e.preRate[j]
	}
	for j, id := range e.res {
		m.resources[id].load = e.preLoad[j]
	}
	m.version = e.pre
	m.reuses++
	return true
}

// recorded returns the entry of the start that left version post, or
// nil if none holds it.
func (s *startMemo) recorded(post uint64) *memoEntry {
	if s == nil {
		return nil
	}
	for i := range s.ent {
		if s.ent[i].post == post {
			return &s.ent[i]
		}
	}
	return nil
}

// forget empties every entry of the memo.
func (s *startMemo) forget() {
	if s == nil {
		return
	}
	for i := range s.ent {
		s.ent[i].post = 0
	}
}
