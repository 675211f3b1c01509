package runner

import "sync"

// Flight runs a keyed computation once among concurrent callers: the
// first caller of a key (the leader) runs fn, later callers join and
// receive its value. The zero value is ready to use.
//
// The runner uses one Flight type at three scopes: the campaign memo
// (kept records, so fig4, fig5 and tab1 share contention cells), the
// cross-campaign point flight a service passes in Options.Flight, and
// the daemon's dedup of identical campaign submissions.
type Flight[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

type flightCall[V any] struct {
	// done is made by the first caller that joins while the leader
	// runs, and closed once the leader returns or panics; finished
	// marks that point. Both are guarded by Flight.mu, so a key nobody
	// joins costs no channel.
	done     chan struct{}
	finished bool
	val      V
	// panicked marks a leader that did not return; pv is its panic
	// value (nil after runtime.Goexit, which joiners re-raise as a
	// *runtime.PanicNilError).
	panicked bool
	pv       any
}

// Do returns fn's value for key. A leader whose fn returns keep=true
// leaves the value in place for every later caller; keep=false releases
// the key once fn returns, so the next caller runs fn afresh. A leader
// that panics always releases the key and re-panics; callers that had
// already joined re-raise the same value. joined reports whether the
// value came from another caller's fn.
func (f *Flight[V]) Do(key string, fn func() (V, bool)) (v V, joined bool) {
	f.mu.Lock()
	if c, ok := f.calls[key]; ok {
		if !c.finished && c.done == nil {
			c.done = make(chan struct{})
		}
		done := c.done
		f.mu.Unlock()
		if done != nil {
			<-done
		}
		if c.panicked {
			panic(c.pv)
		}
		return c.val, true
	}
	if f.calls == nil {
		f.calls = make(map[string]*flightCall[V])
	}
	c := &flightCall[V]{panicked: true}
	f.calls[key] = c
	f.mu.Unlock()

	keep := false
	defer func() {
		if c.panicked {
			c.pv = recover()
		}
		f.mu.Lock()
		if !keep {
			delete(f.calls, key)
		}
		c.finished = true
		done := c.done
		f.mu.Unlock()
		if done != nil {
			close(done)
		}
		if c.pv != nil {
			panic(c.pv)
		}
	}()
	c.val, keep = fn()
	c.panicked = false
	return c.val, false
}
