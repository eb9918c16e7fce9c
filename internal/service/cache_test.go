package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"apbcc/internal/policy"
)

func TestBlockAddressDistinct(t *testing.T) {
	// Field boundaries must not alias: ("ab","c") != ("a","bc").
	a := BlockAddress("ab", []byte("c"), []byte("x"))
	b := BlockAddress("a", []byte("bc"), []byte("x"))
	if a == b {
		t.Fatal("addresses alias across field boundaries")
	}
	if BlockAddress("dict", nil, []byte{1}) == BlockAddress("dict", nil, []byte{2}) {
		t.Fatal("addresses ignore payload")
	}
	if BlockAddress("dict", nil, []byte{1}) != BlockAddress("dict", nil, []byte{1}) {
		t.Fatal("addresses are not deterministic")
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewBlockCache(4, 1<<20)
	calls := 0
	compute := func() ([]byte, error) { calls++; return []byte("payload"), nil }

	v, hit, err := c.GetOrCompute(context.Background(), "k", compute)
	if err != nil || hit || string(v) != "payload" {
		t.Fatalf("first get: v=%q hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.GetOrCompute(context.Background(), "k", compute)
	if err != nil || !hit || string(v) != "payload" {
		t.Fatalf("second get: v=%q hit=%v err=%v", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

func TestCacheAddressesMatchAndAmortize(t *testing.T) {
	blocks := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	model := []byte("model-bytes")
	got := BlockAddresses("dict", model, blocks)
	for i, b := range blocks {
		if want := BlockAddress("dict", model, b); got[i] != want {
			t.Fatalf("block %d: batch address %s != single %s", i, got[i], want)
		}
	}
}

func TestCachePanickingComputeDoesNotWedgeKey(t *testing.T) {
	c := NewBlockCache(1, 1<<20)
	_, _, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) { panic("kaboom") })
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want compute panic error", err)
	}
	// The key must be usable again, not stuck on a dead flight.
	v, _, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(v) != "ok" {
		t.Fatalf("retry after panic: v=%q err=%v", v, err)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewBlockCache(1, 1<<20)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	_, hit, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) { calls++; return []byte("ok"), nil })
	if err != nil || hit {
		t.Fatalf("retry: hit=%v err=%v", hit, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// One shard, capacity for two 4-byte values.
	c := NewBlockCache(1, 8)
	put := func(k string) {
		c.GetOrCompute(context.Background(), k, func() ([]byte, error) { return []byte("1234"), nil })
	}
	put("a")
	put("b")
	c.GetOrCompute(context.Background(), "a", nil) // touch a so b is the LRU victim
	put("c")                                       // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted, want resident", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Bytes != 8 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheOversizeValueNotAdmitted(t *testing.T) {
	c := NewBlockCache(1, 4)
	v, _, err := c.GetOrCompute(context.Background(), "big", func() ([]byte, error) { return make([]byte, 100), nil })
	if err != nil || len(v) != 100 {
		t.Fatalf("v=%d bytes err=%v", len(v), err)
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("oversize value admitted: %+v", s)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewBlockCache(4, 1<<20)
	var computes atomic.Int64
	release := make(chan struct{})
	const waiters = 16

	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
				computes.Add(1)
				<-release
				return []byte("v"), nil
			})
			if err != nil || string(v) != "v" {
				t.Errorf("got %q, %v", v, err)
			}
		}()
	}
	// Release the one compute only once every other request is parked
	// on it: a request arriving after the release would find the value
	// resident and count as a hit, not a coalesced wait.
	for computes.Load() == 0 || c.waiters("k") < waiters-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Coalesced != waiters-1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheShardSpread(t *testing.T) {
	c := NewBlockCache(8, 1<<20)
	for i := 0; i < 256; i++ {
		k := BlockAddress("codec", nil, []byte{byte(i)})
		c.GetOrCompute(context.Background(), k, func() ([]byte, error) { return []byte{byte(i)}, nil })
	}
	used := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		if len(sh.items) > 0 {
			used++
		}
		sh.mu.Unlock()
	}
	if used < c.Shards()/2 {
		t.Fatalf("only %d/%d shards used for 256 keys", used, c.Shards())
	}
}

func TestCacheConcurrentMixed(t *testing.T) {
	c := NewBlockCache(4, 1<<10) // small: forces evictions under load
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", i%50)
				v, _, err := c.GetOrCompute(context.Background(), k, func() ([]byte, error) {
					return []byte(k), nil
				})
				if err != nil || string(v) != k {
					t.Errorf("got %q, %v", v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheCoalescedErrorIsNotAHit is the regression test for waiters
// piggybacking on a failing compute: they receive the error, must
// report hit=false (the X-Apcc-Cache header is derived from it), and
// must not count as coalesced-as-hit in the stats — errored requests
// previously inflated HitRate.
func TestCacheCoalescedErrorIsNotAHit(t *testing.T) {
	c := NewBlockCache(1, 1<<20)
	boom := errors.New("boom")
	entered := make(chan struct{})
	release := make(chan struct{})
	const waiters = 4

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, hit, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
			close(entered)
			<-release
			return nil, boom
		})
		if hit || !errors.Is(err, boom) {
			t.Errorf("leader: hit=%v err=%v", hit, err)
		}
	}()
	<-entered
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A waiter that arrives while the leader's compute is in
			// flight coalesces onto it; one that slips in after the
			// failure runs this compute itself. Both paths must report
			// hit=false and the error.
			_, hit, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) { return nil, boom })
			if hit {
				t.Error("request reported hit=true for a failed compute")
			}
			if !errors.Is(err, boom) {
				t.Errorf("waiter err = %v, want boom", err)
			}
		}()
	}
	close(release)
	wg.Wait()

	s := c.Stats()
	if s.Coalesced != 0 {
		t.Errorf("coalesced = %d, want 0 (compute failed)", s.Coalesced)
	}
	if s.Hits != 0 {
		t.Errorf("hits = %d, want 0", s.Hits)
	}
	if got := s.HitRate(); got != 0 {
		t.Errorf("hit rate = %v, want 0: errored piggybacks must not look like hits", got)
	}
}

// TestCacheEvictionIsInsertionLRU is the regression test for the
// policy-backed shard matching the list-LRU it replaced: entries that
// were inserted but never re-accessed must be evicted oldest-insertion
// first, not in key order.
func TestCacheEvictionIsInsertionLRU(t *testing.T) {
	c := NewBlockCache(1, 8) // two 4-byte values fit
	add := func(key string) {
		t.Helper()
		if _, _, err := c.GetOrCompute(context.Background(), key, func() ([]byte, error) {
			return []byte("1234"), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// "x" sorts after "a": key-ordered eviction would evict "a".
	add("x")
	add("a")
	add("c") // overflow: the oldest insertion ("x") must go
	if _, ok := c.Get("x"); ok {
		t.Error("oldest-inserted entry survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("recently inserted %q was evicted", k)
		}
	}
}

// TestCacheCancelledWaiterNotAMiss pins the wait-abort accounting: a
// coalesced waiter whose context ends before the leader's compute
// finishes neither hit nor ran a compute, so it must charge the
// WaitAborts counter — not Misses — or request timeouts and client
// disconnects would skew HitRate.
func TestCacheCancelledWaiterNotAMiss(t *testing.T) {
	c := NewBlockCache(1, 1<<20)
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrCompute(context.Background(), "k", func() ([]byte, error) {
			close(entered)
			<-release
			return []byte("v"), nil
		})
		leaderDone <- err
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.GetOrCompute(ctx, "k", func() ([]byte, error) {
		t.Error("cancelled waiter ran the compute")
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (the leader only)", s.Misses)
	}
	if s.WaitAborts != 1 {
		t.Fatalf("wait aborts = %d, want 1 (the cancelled waiter)", s.WaitAborts)
	}
	if s.Hits != 0 || s.Coalesced != 0 {
		t.Fatalf("hits=%d coalesced=%d, want 0/0", s.Hits, s.Coalesced)
	}
	if got := s.HitRate(); got != 0 {
		t.Fatalf("hit rate = %v, want 0 (one miss, no hits; abort excluded)", got)
	}
}

// refShard is the shard the LRU list replaced: a value map plus
// policy.PaperKLRU with expiry disabled, fed by a per-shard clock and
// driven by the old insert/victim loop. Sequential use only.
type refShard struct {
	capacity, bytes         int
	clock                   int64
	pol                     policy.Policy[string]
	items                   map[string][]byte
	hits, misses, evictions int64
}

func newRefShard(capacity int) *refShard {
	pol := policy.NewPaperKLRU[string]()
	pol.Bind(policy.Env{}) // ExpireK 0: pure replacement
	return &refShard{capacity: capacity, pol: pol, items: make(map[string][]byte)}
}

func (r *refShard) tick() int64 {
	r.clock++
	return r.clock
}

func (r *refShard) get(key string) ([]byte, bool) {
	val, ok := r.items[key]
	if ok {
		r.pol.OnAccess(key, r.tick())
	}
	return val, ok
}

func (r *refShard) getOrCompute(key string, compute func() ([]byte, error)) (hit bool) {
	if _, ok := r.get(key); ok {
		r.hits++
		return true
	}
	r.misses++
	if val, err := compute(); err == nil {
		r.insert(key, val)
	}
	return false
}

func (r *refShard) add(key string, val []byte) bool {
	if _, ok := r.items[key]; ok {
		return false
	}
	return r.insert(key, val)
}

func (r *refShard) insert(key string, val []byte) bool {
	if len(val) > r.capacity {
		return false
	}
	if _, ok := r.items[key]; ok {
		r.pol.OnAccess(key, r.tick())
		return false
	}
	meta := policy.Meta{Bytes: len(val), Cost: int64(len(val))}
	if !r.pol.Admit(key, meta) {
		return false
	}
	now := r.tick()
	r.items[key] = val
	r.bytes += len(val)
	r.pol.OnInsert(key, meta, now)
	for r.bytes > r.capacity {
		victim, ok := r.pol.Victim(func(k string) bool { return k != key })
		if !ok {
			break
		}
		r.pol.OnRemove(victim)
		r.bytes -= len(r.items[victim])
		delete(r.items, victim)
		r.evictions++
	}
	return true
}

// TestCacheMatchesPolicyLRU drives the LRU list and the reference
// policy-table shard it replaced through the same seeded sequences of
// demand fills (some failing, some losing a race to an admission of
// the same key), readahead admissions and reads, with
// value sizes from one byte to past the shard's capacity. After every
// operation both must report the same outcome and hold the same
// resident set, bytes and hit, miss and eviction counts.
func TestCacheMatchesPolicyLRU(t *testing.T) {
	sizes := []int{1, 3, 8, 16, 17, 40, 100, 300, 1100}
	boom := errors.New("boom")
	for _, capacity := range []int{8, 64, 200, 1024} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("cap%d/seed%d", capacity, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				c := NewBlockCache(1, capacity)
				sh := c.shards[0]
				ref := newRefShard(capacity)
				for op := 0; op < 3000; op++ {
					key := fmt.Sprintf("k%02d", rng.Intn(32))
					val := bytes.Repeat([]byte{byte(op)}, sizes[rng.Intn(len(sizes))])
					var what string
					switch r := rng.Intn(10); {
					case r < 5:
						// Some computes fail; in others a readahead
						// admission of the same key races in first,
						// followed by a read of another key.
						fail, race := rng.Intn(20) == 0, rng.Intn(10) == 0
						raced, other := val[:len(val)/2+1], fmt.Sprintf("k%02d", rng.Intn(32))
						compute := func(add func(string, []byte) bool, get func(string) ([]byte, bool)) func() ([]byte, error) {
							return func() ([]byte, error) {
								if race {
									add(key, raced)
									get(other)
								}
								if fail {
									return nil, boom
								}
								return val, nil
							}
						}
						what = fmt.Sprintf("GetOrCompute %s (fail %v, race %v)", key, fail, race)
						_, hit, _ := c.GetOrCompute(context.Background(), key, compute(c.Add, c.Get))
						if want := ref.getOrCompute(key, compute(ref.add, ref.get)); hit != want {
							t.Fatalf("op %d %s: hit = %v, reference %v", op, what, hit, want)
						}
					case r < 7:
						what = "Add " + key
						if got, want := c.Add(key, val), ref.add(key, val); got != want {
							t.Fatalf("op %d %s: admitted = %v, reference %v", op, what, got, want)
						}
					default:
						what = "Get " + key
						got, ok := c.Get(key)
						want, wantOK := ref.get(key)
						if ok != wantOK || !bytes.Equal(got, want) {
							t.Fatalf("op %d %s: (%d bytes, %v), reference (%d bytes, %v)",
								op, what, len(got), ok, len(want), wantOK)
						}
					}
					var resident, refResident []string
					for k := range sh.items {
						resident = append(resident, k)
					}
					for k := range ref.items {
						refResident = append(refResident, k)
					}
					slices.Sort(resident)
					slices.Sort(refResident)
					if !slices.Equal(resident, refResident) {
						t.Fatalf("op %d %s: resident %v, reference %v", op, what, resident, refResident)
					}
					st := c.Stats()
					if st.Bytes != int64(ref.bytes) || st.Hits != ref.hits || st.Misses != ref.misses || st.Evictions != ref.evictions {
						t.Fatalf("op %d %s: stats %+v, reference bytes=%d hits=%d misses=%d evictions=%d",
							op, what, st, ref.bytes, ref.hits, ref.misses, ref.evictions)
					}
				}
			})
		}
	}
}
