package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"apbcc/internal/obs"
)

// stormThreshold is the eviction count at which one insert counts as an
// eviction storm: a single fill displacing this many residents means
// the shard is badly undersized for the working set (or one giant value
// churned it), which operators want surfaced as a structured log event
// rather than discovered later in hit-rate decay.
const stormThreshold = 8

// BlockAddress computes the content address of a compressed-block cache
// entry: SHA-256 over the codec name, a digest of the serialized codec
// model and the plain block image, with variable-width fields
// length-prefixed so boundaries cannot alias. Two blocks with the same
// address are byte-identical under the same trained codec, so the
// compressed form is shared.
func BlockAddress(codecName string, model, plain []byte) string {
	return addressWithDigest(codecName, sha256.Sum256(model), plain)
}

// BlockAddresses computes the content addresses of many blocks under
// one codec, hashing the (potentially large) model once instead of per
// block.
func BlockAddresses(codecName string, model []byte, blocks [][]byte) []string {
	digest := sha256.Sum256(model)
	out := make([]string, len(blocks))
	for i, b := range blocks {
		out[i] = addressWithDigest(codecName, digest, b)
	}
	return out
}

func addressWithDigest(codecName string, modelDigest [sha256.Size]byte, plain []byte) string {
	h := sha256.New()
	var lenbuf [binary.MaxVarintLen64]byte
	writeField := func(b []byte) {
		n := binary.PutUvarint(lenbuf[:], uint64(len(b)))
		h.Write(lenbuf[:n])
		h.Write(b)
	}
	writeField([]byte(codecName))
	h.Write(modelDigest[:]) // fixed width: no prefix needed
	writeField(plain)
	return hex.EncodeToString(h.Sum(nil))
}

// CacheStats is a point-in-time aggregate over all shards.
type CacheStats struct {
	Hits       int64 // entry found resident
	Misses     int64 // compute ran (or a shared compute failed)
	Coalesced  int64 // request piggybacked on an in-flight compute that succeeded
	WaitAborts int64 // coalesced waiter whose context ended first: neither hit nor miss
	Evictions  int64
	Entries    int64
	Bytes      int64
}

// HitRate returns Hits / (Hits + Misses), counting coalesced requests
// as hits (they never ran the compressor); 0 when idle.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Coalesced + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced) / float64(total)
}

// BlockCache is a sharded, content-addressed cache for compressed
// block payloads. Each shard has an independent lock, so concurrent
// requests for different blocks contend only when they hash to the
// same shard, and evicts least-recently-used entries under its own
// byte budget — the paper's replacement rule, kept as an intrusive
// list so a hit, a fill and each eviction cost O(1) whatever the
// shard holds. Cached values are shared slices: callers must not
// mutate them.
type BlockCache struct {
	shards []*cacheShard
}

// SetEvictionStormFn installs a callback invoked (outside shard locks)
// whenever a single insert evicts at least stormThreshold entries.
// Call before serving traffic; the serving tier wires this to a
// structured log warning.
func (c *BlockCache) SetEvictionStormFn(fn func(key string, evicted int)) {
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.onStorm = fn
		sh.mu.Unlock()
	}
}

// NewBlockCache creates an LRU cache with the given shard count and
// per-shard byte capacity (each rounded up to at least 1).
func NewBlockCache(shards, bytesPerShard int) *BlockCache {
	if shards < 1 {
		shards = 1
	}
	if bytesPerShard < 1 {
		bytesPerShard = 1
	}
	c := &BlockCache{shards: make([]*cacheShard, shards)}
	for i := range c.shards {
		sh := &cacheShard{
			capacity: bytesPerShard,
			items:    make(map[string]*lruNode),
			inflight: make(map[string]*flight),
		}
		sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
		c.shards[i] = sh
	}
	return c
}

// GetOrCompute returns the value for key, running compute on a miss.
// Concurrent callers missing on the same key wait for a single compute
// (singleflight); its result is handed to all of them. hit reports
// whether this caller avoided running compute itself. Errors are not
// cached: the next request retries. The lookup — and, on a miss, the
// compute — is timed as a StageL1 span on ctx's trace (outcome
// hit/miss/coalesced); with no trace attached the call costs exactly
// what it did untraced.
func (c *BlockCache) GetOrCompute(ctx context.Context, key string, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	return c.shard(key).getOrCompute(ctx, key, compute)
}

// Get returns the cached value for key, if resident, and marks it most
// recently used. It does not count toward hit/miss statistics.
func (c *BlockCache) Get(key string) ([]byte, bool) {
	return c.shard(key).get(key)
}

// Contains reports whether key is resident without touching recency or
// hit/miss accounting — a pure peek, used to plan readahead without
// distorting replacement decisions.
func (c *BlockCache) Contains(key string) bool {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.items[key]
	return ok
}

// Add inserts a value produced out of band — the serving tier's
// readahead admission path. It charges neither hit nor miss, refuses
// oversize values like any fill, and never replaces an existing entry
// (the resident value is authoritative; a concurrent demand fill for
// the same key may also race in first). It reports whether the value
// was admitted. The cache shares val with future readers: the caller
// must hand over ownership.
func (c *BlockCache) Add(key string, val []byte) bool {
	sh := c.shard(key)
	sh.mu.Lock()
	if _, ok := sh.items[key]; ok {
		sh.mu.Unlock()
		return false
	}
	admitted, evicted := sh.insert(key, val)
	storm := sh.onStorm
	sh.mu.Unlock()
	if storm != nil && evicted >= stormThreshold {
		storm(key, evicted)
	}
	return admitted
}

// Stats aggregates statistics across shards.
func (c *BlockCache) Stats() CacheStats {
	var s CacheStats
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Coalesced += sh.coalesced
		s.WaitAborts += sh.waitAborts
		s.Evictions += sh.evictions
		s.Entries += int64(len(sh.items))
		s.Bytes += int64(sh.bytes)
		sh.mu.Unlock()
	}
	return s
}

// Shards returns the shard count.
func (c *BlockCache) Shards() int { return len(c.shards) }

func (c *BlockCache) shard(key string) *cacheShard {
	// Inline FNV-1a: no hasher allocation on the per-request path.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// flight is one in-progress compute; waiters block on done.
type flight struct {
	done    chan struct{}
	val     []byte
	err     error
	waiters int // requests parked on done; guarded by the shard lock
}

// lruNode is one resident entry, linked into its shard's recency list.
type lruNode struct {
	prev, next *lruNode
	key        string
	val        []byte
}

// cacheShard stores values, byte accounting and recency. lru is the
// sentinel of a circular doubly linked list ordered most recently used
// (lru.next) to least (lru.prev); evicted nodes go onto free, linked
// through next, and back into the list on the next fill, so a full
// shard's fill-evict cycle allocates nothing. All fields are guarded
// by mu.
type cacheShard struct {
	mu       sync.Mutex
	capacity int
	bytes    int
	items    map[string]*lruNode
	lru      lruNode
	free     *lruNode
	inflight map[string]*flight
	onStorm  func(key string, evicted int) // invoked outside the lock

	hits, misses, coalesced, waitAborts, evictions int64
}

// unlink takes n out of the recency list.
func unlink(n *lruNode) {
	n.prev.next = n.next
	n.next.prev = n.prev
}

// pushFront links n in as the most recently used entry.
func (s *cacheShard) pushFront(n *lruNode) {
	n.prev, n.next = &s.lru, s.lru.next
	s.lru.next.prev = n
	s.lru.next = n
}

// touch marks n most recently used.
func (s *cacheShard) touch(n *lruNode) {
	if s.lru.next != n {
		unlink(n)
		s.pushFront(n)
	}
}

func (s *cacheShard) get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.items[key]; ok {
		s.touch(n)
		return n.val, true
	}
	return nil, false
}

func (s *cacheShard) getOrCompute(ctx context.Context, key string, compute func() ([]byte, error)) ([]byte, bool, error) {
	// One StageL1 span covers the whole call: lookup on a hit, lookup +
	// compute on a miss (the compute's own spans nest under it). tr is
	// nil when tracing is off — Begin/End are then free no-ops. The
	// shard hashing before it is charged to l1 too: root spans tile the
	// trace, so this one starts where the route span ended.
	tr := obs.FromContext(ctx)
	sp := tr.Begin(obs.StageL1)
	s.mu.Lock()
	if n, ok := s.items[key]; ok {
		s.touch(n)
		s.hits++
		val := n.val
		s.mu.Unlock()
		sp.End(obs.OutcomeHit)
		return val, true, nil
	}
	if fl, ok := s.inflight[key]; ok {
		fl.waiters++
		s.mu.Unlock()
		// A coalesced waiter must stay cancellable: the leader may be in
		// an L2 retry loop or queued pool work, and a waiter whose client
		// disconnected (or whose deadline fired) has to unblock now. The
		// flight itself is untouched — the leader still completes and
		// caches the value for everyone else.
		select {
		case <-fl.done:
		case <-ctx.Done():
			// The waiter gave up before the compute finished: it neither
			// hit nor ran a compute, so charging a miss here would skew
			// HitRate under request timeouts and client disconnects.
			s.mu.Lock()
			s.waitAborts++
			s.mu.Unlock()
			sp.End(obs.OutcomeError)
			return nil, false, ctx.Err()
		}
		if fl.err != nil {
			// The shared compute failed: this request got an error, not a
			// value, so it is neither a hit nor coalesced-as-hit. Count it
			// as a miss so errored piggybacks cannot inflate HitRate.
			s.mu.Lock()
			s.misses++
			s.mu.Unlock()
			sp.End(obs.OutcomeError)
			return nil, false, fl.err
		}
		s.mu.Lock()
		s.coalesced++
		s.mu.Unlock()
		sp.End(obs.OutcomeCoalesced)
		return fl.val, true, nil
	}
	fl := &flight{done: make(chan struct{})}
	s.inflight[key] = fl
	s.misses++
	s.mu.Unlock()

	fl.val, fl.err = safeCompute(compute)

	var evicted int
	s.mu.Lock()
	delete(s.inflight, key)
	if fl.err == nil {
		_, evicted = s.insert(key, fl.val)
	}
	storm := s.onStorm
	s.mu.Unlock()
	close(fl.done)
	if fl.err != nil {
		sp.End(obs.OutcomeError)
	} else {
		sp.End(obs.OutcomeMiss)
	}
	if storm != nil && evicted >= stormThreshold {
		storm(key, evicted)
	}
	return fl.val, false, fl.err
}

// waiters reports how many requests are parked on key's in-flight
// compute (0 when none is in flight), so tests can release a leader
// only once every follower has joined it.
func (c *BlockCache) waiters(key string) int {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fl, ok := sh.inflight[key]; ok {
		return fl.waiters
	}
	return 0
}

// safeCompute converts a panicking compute into an error. Without
// this, a panic would unwind past getOrCompute with the in-flight
// entry still registered and its done channel never closed, wedging
// the key (and every coalesced waiter) forever.
func safeCompute(compute func() ([]byte, error)) (val []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: cache compute panic: %v", r)
		}
	}()
	return compute()
}

// insert adds an entry as the most recently used and evicts from the
// least recently used end until the shard fits its capacity, reporting
// whether the value was actually admitted and how many residents it
// displaced (callers compare that against stormThreshold outside the
// lock). Values larger than the whole shard are not cached at all
// (admitting them would just flush everything else), and a key that is
// already resident — an insert that lost a race — only has its recency
// refreshed. Caller holds the lock.
func (s *cacheShard) insert(key string, val []byte) (admitted bool, evicted int) {
	if len(val) > s.capacity {
		return false, 0
	}
	if n, ok := s.items[key]; ok {
		s.touch(n)
		return false, 0
	}
	n := s.free
	if n != nil {
		s.free = n.next
	} else {
		n = new(lruNode)
	}
	n.key, n.val = key, val
	s.pushFront(n)
	s.items[key] = n
	s.bytes += len(val)
	// The new entry is at the front and fits on its own, so the loop
	// stops before reaching it: what we just paid to compute is never
	// its own victim.
	for s.bytes > s.capacity {
		victim := s.lru.prev
		unlink(victim)
		delete(s.items, victim.key)
		s.bytes -= len(victim.val)
		*victim = lruNode{next: s.free}
		s.free = victim
		s.evictions++
		evicted++
	}
	return true, evicted
}
