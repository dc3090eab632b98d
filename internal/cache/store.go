package cache

import "context"

// Via reports how Store.Do answered one caller.
type Via int

const (
	// Computed: this caller led the flight that ran compute.
	Computed Via = iota
	// Hit: the LRU already held the key.
	Hit
	// Coalesced: this caller joined a flight another caller led.
	Coalesced
)

// Store is the cache protocol, written once for every value type its
// callers cache (interval and chain solutions alike): look the key up in
// a sharded LRU; on a miss, fold identical in-flight computations into
// one through a single-flight Group and add the result; then hand every
// caller — the leader included — a private shallow copy tagged with how
// it was answered. The pointer resident in the LRU is never handed out,
// so a caller mutating "its" result cannot corrupt the cache.
type Store[T any] struct {
	lru *Sharded[*T]
	sf  Group[*T]
}

// NewStore returns a Store holding at most capacity values
// (capacity <= 0 picks 1024) over 16 LRU shards.
func NewStore[T any](capacity int) *Store[T] {
	return &Store[T]{lru: New[*T](capacity, 16)}
}

// Do returns a private copy of the value cached under key, running
// compute at most once among concurrent callers on a miss. compute gets
// the flight's refcounted context (see Group.Do); its error is returned
// as is and nothing is cached.
func (s *Store[T]) Do(ctx context.Context, key Key, compute func(context.Context) (*T, error)) (*T, Via, error) {
	if v, ok := s.lru.Get(key); ok {
		cp := *v
		return &cp, Hit, nil
	}
	v, joined, err := s.sf.Do(ctx, key, func(fctx context.Context) (*T, error) {
		v, err := compute(fctx)
		if err != nil {
			return nil, err
		}
		s.lru.Add(key, v)
		return v, nil
	})
	if err != nil {
		return nil, Computed, err
	}
	cp := *v
	if joined {
		return &cp, Coalesced, nil
	}
	return &cp, Computed, nil
}

// Len returns the number of resident values.
func (s *Store[T]) Len() int { return s.lru.Len() }

// Stats returns the LRU's cumulative counters.
func (s *Store[T]) Stats() Stats { return s.lru.Stats() }

// FlightStats returns the single-flight group's cumulative counters.
func (s *Store[T]) FlightStats() FlightStats { return s.sf.Stats() }
