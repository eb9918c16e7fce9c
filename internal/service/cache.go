package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"apbcc/internal/obs"
	"apbcc/internal/policy"
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
// same shard; each shard also runs its own instance of a pluggable
// replacement policy (internal/policy) — the same engine the embedded
// runtime evicts under, so the server can compare plain LRU against
// cost-aware or frequency-based eviction. Cached values are shared
// slices: callers must not mutate them.
type BlockCache struct {
	shards  []*cacheShard
	polName string
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

// NewBlockCache creates a cache with the given shard count (rounded up
// to at least 1) and per-shard byte capacity, evicting LRU (the klru
// policy with expiry disabled).
func NewBlockCache(shards, bytesPerShard int) *BlockCache {
	c, err := NewBlockCachePolicy(shards, bytesPerShard, "klru")
	if err != nil {
		panic(err) // unreachable: klru is registered
	}
	return c
}

// NewBlockCachePolicy creates a cache whose shards evict under the
// named replacement policy (see policy.Names); the empty name selects
// LRU. Each shard gets its own policy instance fed by a per-shard
// operation clock.
func NewBlockCachePolicy(shards, bytesPerShard int, polName string) (*BlockCache, error) {
	if shards < 1 {
		shards = 1
	}
	if bytesPerShard < 1 {
		bytesPerShard = 1
	}
	c := &BlockCache{shards: make([]*cacheShard, shards)}
	for i := range c.shards {
		pol, err := policy.New[string](polName)
		if err != nil {
			return nil, err
		}
		// ExpireK 0: no k-edge expiry on an open key universe; the
		// policy is pure replacement here.
		pol.Bind(policy.Env{})
		c.shards[i] = &cacheShard{
			capacity: bytesPerShard,
			pol:      pol,
			items:    make(map[string][]byte),
			inflight: make(map[string]*flight),
		}
		c.polName = pol.Name()
	}
	return c, nil
}

// Policy names the shards' replacement policy.
func (c *BlockCache) Policy() string { return c.polName }

// GetOrCompute returns the value for key, running compute on a miss.
// Concurrent callers missing on the same key wait for a single compute
// (singleflight); its result is handed to all of them. hit reports
// whether this caller avoided running compute itself. Errors are not
// cached: the next request retries. The value's own byte length stands
// in as its re-production cost; cost-sensitive callers use
// GetOrComputeCost.
func (c *BlockCache) GetOrCompute(key string, compute func() ([]byte, error)) (val []byte, hit bool, err error) {
	return c.shard(key).getOrCompute(context.Background(), key, func() ([]byte, int64, error) {
		v, err := compute()
		return v, int64(len(v)), err
	})
}

// GetOrComputeCost is GetOrCompute for computes that know what a miss
// costs (e.g. the modeled compression cycles of the block): cost-aware
// replacement policies keep expensive-to-rebuild payloads resident
// longer. The lookup — and, on a miss, the compute — is timed as a
// StageL1 span on ctx's trace (outcome hit/miss/coalesced); with no
// trace attached the call costs exactly what it did untraced.
func (c *BlockCache) GetOrComputeCost(ctx context.Context, key string, compute func() ([]byte, int64, error)) (val []byte, hit bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return c.shard(key).getOrCompute(ctx, key, compute)
}

// Get returns the cached value for key, if resident. It does not count
// toward hit/miss statistics.
func (c *BlockCache) Get(key string) ([]byte, bool) {
	return c.shard(key).get(key)
}

// Contains reports whether key is resident without touching policy
// recency or hit/miss accounting — a pure peek, used to plan readahead
// without distorting replacement decisions.
func (c *BlockCache) Contains(key string) bool {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.items[key]
	return ok
}

// Add inserts a value produced out of band — the serving tier's
// readahead admission path. It charges neither hit nor miss, consults
// the replacement policy's admission rule like any fill, and never
// replaces an existing entry (the resident value is authoritative; a
// concurrent demand fill for the same key may also race in first). It
// reports whether the value was admitted. The cache shares val with
// future readers: the caller must hand over ownership.
func (c *BlockCache) Add(key string, val []byte, cost int64) bool {
	sh := c.shard(key)
	sh.mu.Lock()
	if _, ok := sh.items[key]; ok {
		sh.mu.Unlock()
		return false
	}
	admitted, evicted := sh.insert(key, val, cost)
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

// cacheShard stores values and byte accounting; the bound policy owns
// recency/frequency/cost bookkeeping and picks victims. All policy
// calls happen under mu (policies are not concurrency-safe), fed by
// the shard's operation clock.
type cacheShard struct {
	mu       sync.Mutex
	capacity int
	bytes    int
	clock    int64
	pol      policy.Policy[string]
	items    map[string][]byte
	inflight map[string]*flight
	onStorm  func(key string, evicted int) // invoked outside the lock

	hits, misses, coalesced, waitAborts, evictions int64
}

// tick advances the shard's logical clock; caller holds the lock.
func (s *cacheShard) tick() int64 {
	s.clock++
	return s.clock
}

func (s *cacheShard) get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if val, ok := s.items[key]; ok {
		s.pol.OnAccess(key, s.tick())
		return val, true
	}
	return nil, false
}

func (s *cacheShard) getOrCompute(ctx context.Context, key string, compute func() ([]byte, int64, error)) ([]byte, bool, error) {
	// One StageL1 span covers the whole call: lookup on a hit, lookup +
	// compute on a miss (the compute's own spans nest under it). tr is
	// nil when tracing is off — Begin/End are then free no-ops. The
	// shard hashing before it is charged to l1 too: root spans tile the
	// trace, so this one starts where the route span ended.
	tr := obs.FromContext(ctx)
	sp := tr.Begin(obs.StageL1)
	s.mu.Lock()
	if val, ok := s.items[key]; ok {
		s.pol.OnAccess(key, s.tick())
		s.hits++
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

	var cost int64
	fl.val, cost, fl.err = safeCompute(compute)

	var evicted int
	s.mu.Lock()
	delete(s.inflight, key)
	if fl.err == nil {
		_, evicted = s.insert(key, fl.val, cost)
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
func safeCompute(compute func() ([]byte, int64, error)) (val []byte, cost int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: cache compute panic: %v", r)
		}
	}()
	return compute()
}

// insert adds an entry and asks the policy for victims until the shard
// fits its capacity, reporting whether the value was actually admitted
// and how many residents it displaced (callers compare that against
// stormThreshold outside the lock). Values larger than the whole shard
// are not cached at all (admitting them would just flush everything
// else), and the policy may veto admission outright. Caller holds the
// lock.
func (s *cacheShard) insert(key string, val []byte, cost int64) (admitted bool, evicted int) {
	if len(val) > s.capacity {
		return false, 0
	}
	if _, ok := s.items[key]; ok { // lost a race with another insert
		s.pol.OnAccess(key, s.tick())
		return false, 0
	}
	meta := policy.Meta{Bytes: len(val), Cost: cost}
	if !s.pol.Admit(key, meta) {
		return false, 0
	}
	now := s.tick()
	s.items[key] = val
	s.bytes += len(val)
	s.pol.OnInsert(key, meta, now)
	// The brand-new entry is not evictable on its own insert: evicting
	// what we just paid to compute would thrash under any policy.
	for s.bytes > s.capacity {
		victim, ok := s.pol.Victim(func(k string) bool { return k != key })
		if !ok {
			break
		}
		if !s.removeLocked(victim) {
			// Phantom victim: the policy named a key the shard does not
			// hold, so bytes cannot shrink. The policy has been told to
			// forget it (OnRemove above); stop rather than spin on a
			// policy that keeps hallucinating the same victim.
			break
		}
		s.evictions++
		evicted++
	}
	return true, evicted
}

// removeLocked drops one entry, reporting whether any bytes were
// actually released. The policy is told to forget the key even when the
// shard never held it — otherwise a policy tracking a phantom key would
// nominate it as victim forever. Caller holds the lock.
func (s *cacheShard) removeLocked(key string) bool {
	val, ok := s.items[key]
	s.pol.OnRemove(key)
	if !ok {
		return false
	}
	delete(s.items, key)
	s.bytes -= len(val)
	return true
}
