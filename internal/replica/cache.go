package replica

import (
	"errors"

	"repro/internal/bench"
	"repro/internal/server"
)

// Cache is a failover runner.CacheStore over a replica Set: every
// replica serves the same content-addressed records, so any healthy
// one is as good as another. Each load or store makes one attempt on a
// healthy replica; an I/O error quarantines that replica and, when the
// Set's shared retry budget grants it, the operation is tried once
// more on another healthy replica. A slow but live replica is not
// raced: its request runs to the store's per-request timeout before
// the operation fails over.
type Cache struct {
	set    *Set
	stores []*server.RemoteCache
}

// NewCache builds the failover store over set, with the set's
// transport. A replica's store does not retry: the failover to another
// replica, gated by the set's budget, is the second attempt.
func NewCache(set *Set) *Cache {
	c := &Cache{set: set}
	for _, u := range set.urls {
		rc := server.NewRemoteCache(u)
		rc.SetRetries(0, 0, 0)
		if set.rt != nil {
			rc.SetTransport(set.rt)
		}
		c.stores = append(c.stores, rc)
	}
	return c
}

// failover runs op on a healthy replica. When op fails, the replica is
// marked down and op runs once more on another healthy replica if the
// budget grants the retry (counted in the Set's Failovers). It reports
// whether an attempt succeeded.
func (s *Set) failover(op func(i int) (failed bool)) bool {
	i, ok := s.pick()
	if !ok {
		return false
	}
	if !op(i) {
		return true
	}
	s.markDown(i)
	j, ok := s.pickOther(i)
	if !ok || !s.budget.Allow() {
		return false
	}
	s.failovers.Add(1)
	if !op(j) {
		return true
	}
	s.markDown(j)
	return false
}

// Load implements runner.CacheStore. With no replica answering it
// reports an I/O error, so the breaker and degrade machinery upstairs
// react instead of treating the fleet as an empty cache.
func (c *Cache) Load(key string) (rec bench.PointRecord, ok, mismatch, ioErr bool) {
	if !c.set.failover(func(i int) bool {
		rec, ok, mismatch, ioErr = c.stores[i].Load(key)
		return ioErr
	}) {
		return bench.PointRecord{}, false, false, true
	}
	return rec, ok, mismatch, false
}

// Store implements runner.CacheStore. Every replica shares the content
// address space, so one durable copy is enough: the next reader of a
// replica that missed the write recomputes the point.
func (c *Cache) Store(key string, rec bench.PointRecord) error {
	err := errNoHealthyReplica
	c.set.failover(func(i int) bool {
		err = c.stores[i].Store(key, rec)
		return err != nil
	})
	return err
}

var errNoHealthyReplica = errors.New("replica: no healthy replica")
