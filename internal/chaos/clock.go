package chaos

import (
	"sync"
	"time"
)

// Clock abstracts wall-clock waiting so backoff loops and drain
// polling can run against a fake clock in tests:
// a chaos shutdown test advances time explicitly instead of sleeping.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	After(d time.Duration) <-chan time.Time
}

// Real returns the system clock.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// FakeClock is a manually advanced clock. Sleep and After block until
// Advance moves the clock past their deadline; a zero or negative
// duration completes immediately. Safe for concurrent use.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*fakeWaiter
}

type fakeWaiter struct {
	deadline time.Time
	ch       chan time.Time
}

// NewFakeClock starts a fake clock at a fixed, arbitrary instant.
func NewFakeClock() *FakeClock {
	return &FakeClock{now: time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *FakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *FakeClock) Sleep(d time.Duration) { <-f.After(d) }

func (f *FakeClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if d <= 0 {
		ch <- f.now
		return ch
	}
	f.waiters = append(f.waiters, &fakeWaiter{deadline: f.now.Add(d), ch: ch})
	return ch
}

// Advance moves the clock forward and releases every waiter whose
// deadline has passed.
func (f *FakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	now := f.now
	var keep []*fakeWaiter
	var fire []*fakeWaiter
	for _, w := range f.waiters {
		if !w.deadline.After(now) {
			fire = append(fire, w)
		} else {
			keep = append(keep, w)
		}
	}
	f.waiters = keep
	f.mu.Unlock()
	for _, w := range fire {
		w.ch <- now
	}
}

// Waiters reports how many Sleep/After calls are currently blocked —
// tests use it to know when the code under test has reached its wait.
func (f *FakeClock) Waiters() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}
