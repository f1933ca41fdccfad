package capserver

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// flight is one in-flight computation. body, err and the timing split
// are written exactly once, before done is closed; waiters read them
// only after <-done, which provides the happens-before edge.
type flight struct {
	key  string
	done chan struct{}
	body []byte
	err  error
	// queue and compute split the leader's wall time between waiting
	// in the worker queue and executing the kernel; request tracing
	// exposes them per hop. Waiters that shared the flight inherit the
	// leader's split — the wait they experienced is the same queue and
	// compute the leader paid. Cache and store hits leave both zero.
	queue, compute time.Duration
	// waiters counts requests still interested in the result: the
	// leader plus every joined request, each decremented when its
	// request context ends before the flight completes. A queued
	// compute job that finds zero waiters skips the computation, so
	// abandoned requests stop costing worker time.
	waiters atomic.Int32
}

// abandon withdraws one request's interest in the flight.
func (f *flight) abandon() { f.waiters.Add(-1) }

// abandoned reports whether no request is waiting for the result.
func (f *flight) abandoned() bool { return f.waiters.Load() <= 0 }

// cacheEntry is one completed result in the LRU list.
type cacheEntry struct {
	key  string
	body []byte
}

// CacheStats is a point-in-time snapshot of the result cache.
type CacheStats struct {
	// Entries is the number of completed results currently cached.
	Entries int
	// Evictions counts results dropped by the LRU bound.
	Evictions int64
	// Inflight is the number of computations currently deduplicating
	// concurrent identical requests.
	Inflight int
}

// flightCache is an LRU result cache with singleflight-style
// deduplication: the first request for a key becomes the leader and
// computes; concurrent identical requests join the leader's flight and
// share its result without recomputing.
type flightCache struct {
	mu        sync.Mutex
	cap       int
	lru       *list.List // of *cacheEntry, front = most recent
	idx       map[string]*list.Element
	inflight  map[string]*flight
	evictions int64
}

// newFlightCache builds a cache bounded to capEntries results.
func newFlightCache(capEntries int) *flightCache {
	return &flightCache{
		cap:      capEntries,
		lru:      list.New(),
		idx:      make(map[string]*list.Element),
		inflight: make(map[string]*flight),
	}
}

// lookupOrJoin resolves key in one critical section: a cached body
// (hit), an existing flight to wait on (shared), or a fresh flight the
// caller must lead (leader == true). Exactly one of the three holds.
// Only a fresh flight copies the key to the heap; it carries the copy
// as fl.key.
func (c *flightCache) lookupOrJoin(key []byte) (body []byte, fl *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[string(key)]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).body, nil, false
	}
	if fl, ok := c.inflight[string(key)]; ok {
		fl.waiters.Add(1)
		return nil, fl, false
	}
	fl = &flight{key: string(key), done: make(chan struct{})}
	fl.waiters.Store(1)
	c.inflight[fl.key] = fl
	return nil, fl, true
}

// finish completes a flight: it publishes the result to every waiter
// and, on success, installs it in the LRU (evicting beyond capacity).
func (c *flightCache) finish(fl *flight, body []byte, err error) {
	key := fl.key
	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.idx[key] = c.lru.PushFront(&cacheEntry{key: key, body: body})
		for c.lru.Len() > c.cap {
			oldest := c.lru.Back()
			c.lru.Remove(oldest)
			delete(c.idx, oldest.Value.(*cacheEntry).key)
			c.evictions++
		}
	}
	c.mu.Unlock()
	fl.body, fl.err = body, err
	close(fl.done)
}

// stats snapshots the cache occupancy.
func (c *flightCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: c.lru.Len(), Evictions: c.evictions, Inflight: len(c.inflight)}
}
