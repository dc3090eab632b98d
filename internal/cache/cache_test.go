package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func keyOf(s string) Key { return NewHasher().String("k", s).Sum() }

func TestHasherLabeledFieldsDoNotConcatenate(t *testing.T) {
	a := NewHasher().String("x", "ab").String("y", "c").Sum()
	b := NewHasher().String("x", "a").String("y", "bc").Sum()
	if a == b {
		t.Fatal("distinct field splits hashed equal")
	}
	c1 := NewHasher().Int64("n", 12).Sum()
	c2 := NewHasher().Int64("n", 12).Sum()
	if c1 != c2 {
		t.Fatal("identical fields hashed unequal")
	}
}

func TestLRUBasicAndEviction(t *testing.T) {
	c := New[int](4, 2) // 2 entries per shard
	keys := []Key{keyOf("a"), keyOf("b"), keyOf("c"), keyOf("d"), keyOf("e"), keyOf("f")}
	for i, k := range keys {
		c.Add(k, i)
	}
	if got := c.Len(); got > 4 {
		t.Fatalf("capacity not enforced: %d resident", got)
	}
	st := c.Stats()
	if st.Insertions != int64(len(keys)) {
		t.Fatalf("insertions = %d, want %d", st.Insertions, len(keys))
	}
	if st.Evictions != st.Insertions-int64(c.Len()) {
		t.Fatalf("evictions %d inconsistent with insertions %d - resident %d",
			st.Evictions, st.Insertions, c.Len())
	}
	// Recency: touch the oldest resident key, add another to its shard,
	// and the touched key must survive.
	var resident []Key
	for _, k := range keys {
		if _, ok := c.Get(k); ok {
			resident = append(resident, k)
		}
	}
	if len(resident) == 0 {
		t.Fatal("nothing resident")
	}
	victim := resident[0]
	c.Get(victim) // most recently used now
	shard := victim.shard(2)
	for i := 0; ; i++ {
		k := keyOf(string(rune('A' + i)))
		if k.shard(2) == shard {
			c.Add(k, 99)
			break
		}
	}
	if _, ok := c.Get(victim); !ok {
		t.Fatal("most recently used entry was evicted")
	}
}

func TestLRUUpdateOverwrites(t *testing.T) {
	c := New[int](8, 1)
	k := keyOf("x")
	c.Add(k, 1)
	c.Add(k, 2)
	if v, ok := c.Get(k); !ok || v != 2 {
		t.Fatalf("got %v %v, want 2 true", v, ok)
	}
	if st := c.Stats(); st.Updates != 1 || st.Insertions != 1 {
		t.Fatalf("stats %+v, want 1 update / 1 insertion", st)
	}
}

func TestSingleFlightDedups(t *testing.T) {
	var g Group[int]
	var calls atomic.Int64
	release := make(chan struct{})
	const waiters = 8

	var wg sync.WaitGroup
	joinedCount := atomic.Int64{}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, joined, err := g.Do(context.Background(), keyOf("k"), func(ctx context.Context) (int, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("got %v %v", v, err)
			}
			if joined {
				joinedCount.Add(1)
			}
		}()
	}
	// Wait until every caller is either the leader or has joined.
	for g.Stats().Dedups+g.Stats().Executions < waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	if got := joinedCount.Load(); got != waiters-1 {
		t.Fatalf("%d joiners, want %d", got, waiters-1)
	}
}

func TestSingleFlightRefcountedCancellation(t *testing.T) {
	var g Group[int]
	started := make(chan struct{})
	observed := make(chan error, 1)

	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()

	fn := func(ctx context.Context) (int, error) {
		close(started)
		<-ctx.Done()
		observed <- ctx.Err()
		return 0, ctx.Err()
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _, err := g.Do(ctx1, keyOf("k"), fn)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("caller 1: %v", err)
		}
	}()
	<-started
	go func() {
		defer wg.Done()
		_, _, err := g.Do(ctx2, keyOf("k"), fn)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("caller 2: %v", err)
		}
	}()
	for g.Stats().Dedups < 1 {
		time.Sleep(time.Millisecond)
	}

	// One of two waiters leaves: the flight must keep running.
	cancel1()
	select {
	case err := <-observed:
		t.Fatalf("flight cancelled with a waiter remaining: %v", err)
	case <-time.After(30 * time.Millisecond):
	}

	// The last waiter leaves: the flight context must be cancelled.
	cancel2()
	select {
	case err := <-observed:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("flight context error = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("flight context never cancelled after all waiters left")
	}
	wg.Wait()
}

func TestSingleFlightErrorPropagates(t *testing.T) {
	var g Group[int]
	boom := errors.New("boom")
	_, _, err := g.Do(context.Background(), keyOf("k"), func(ctx context.Context) (int, error) {
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failed flight must not be cached in the group: the next call
	// runs again.
	v, _, err := g.Do(context.Background(), keyOf("k"), func(ctx context.Context) (int, error) {
		return 7, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("second call got %v %v", v, err)
	}
}

// TestStoreTagsAndPrivateCopies pins the Store protocol every cache
// caller shares: one computation for concurrent identical callers, each
// answered with its own Via tag (one Computed leader, the rest
// Coalesced, later callers Hit), every answer a private copy — so no
// caller can reach the resident value — and a failed computation
// cached nowhere.
func TestStoreTagsAndPrivateCopies(t *testing.T) {
	type sol struct{ v int }
	s := NewStore[sol](8)
	boom := errors.New("boom")
	if _, _, err := s.Do(context.Background(), keyOf("k"), func(context.Context) (*sol, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}

	var calls atomic.Int64
	release := make(chan struct{})
	const callers = 6
	got := make([]*sol, callers)
	vias := make([]Via, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, via, err := s.Do(context.Background(), keyOf("k"), func(context.Context) (*sol, error) {
				calls.Add(1)
				<-release
				return &sol{v: 42}, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			got[i], vias[i] = v, via
		}(i)
	}
	for f := s.FlightStats(); f.Executions+f.Dedups < callers+1; f = s.FlightStats() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	count := map[Via]int{}
	for i, v := range got {
		count[vias[i]]++
		if v == nil || v.v != 42 {
			t.Fatalf("caller %d got %+v", i, v)
		}
		v.v = -1 // a caller mutating its answer must not reach anyone else's
	}
	if count[Computed] != 1 || count[Coalesced] != callers-1 {
		t.Fatalf("tags %v, want 1 computed / %d coalesced", count, callers-1)
	}
	v, via, err := s.Do(context.Background(), keyOf("k"), func(context.Context) (*sol, error) {
		t.Error("a resident key was recomputed")
		return nil, nil
	})
	if err != nil || via != Hit || v.v != 42 {
		t.Fatalf("repeat: %+v %v %v, want the untouched value as a hit", v, via, err)
	}
	if s.Len() != 1 || s.Stats().Hits != 1 {
		t.Fatalf("len %d stats %+v, want 1 resident / 1 hit", s.Len(), s.Stats())
	}
}
