package compress

import (
	"math/bits"
	"sync"
)

// Size-classed buffer pool for codec scratch space. Hot paths across
// core, pack, rt, and service borrow buffers here instead of allocating
// per block, which is what makes the steady-state allocation count of a
// block operation (compress, decompress, serve) independent of traffic.
//
// Pool discipline:
//
//   - GetBuf(n) returns a zero-length slice with capacity >= n. The
//     caller appends into it (typically via the codec append API) and
//     may hand the grown slice to PutBuf when done — PutBuf pools the
//     final slice by its capacity, so growth is not lost.
//   - A buffer handed to PutBuf must no longer be referenced by anyone:
//     putting a slice that a cache, map, or another goroutine still
//     reads is a use-after-free in spirit (the next GetBuf will scribble
//     over it). When a value must outlive the operation, copy it to an
//     exact-size owned slice and pool the scratch.
//   - PutBuf(nil) and putting foreign (non-pooled) slices are both
//     fine; slices outside the class range are simply dropped for the
//     GC.
//   - Contents are not zeroed: GetBuf returns a zero-length slice, so
//     stale bytes are only visible to callers that reslice past len —
//     don't.
//
// Ownership moves with the slice, never with the box: a *[]byte that
// carried a buffer through a class pool is emptied and recycled through
// boxPool the moment GetBuf unwraps it, so no box is ever shared
// between a caller and the pool, and a GetBuf/PutBuf round trip
// allocates nothing.

const (
	// minBufClass is the smallest pooled capacity (1<<9 = 512 B), on the
	// order of a basic-block image.
	minBufClass = 9
	// maxBufClass is the largest pooled capacity (1<<22 = 4 MiB),
	// comfortably above any whole-program image in the suite.
	maxBufClass = 22
)

// bufPools[i] holds *[]byte with capacity exactly 1<<(minBufClass+i).
// A slice header stored in an interface escapes to the heap, so the
// pools hold pointers to headers ("boxes"), and the boxes themselves
// are recycled through boxPool: GetBuf empties the box it unwrapped and
// parks it there, PutBuf takes one back to carry the returned slice.
var bufPools [maxBufClass - minBufClass + 1]sync.Pool

// boxPool holds empty *[]byte boxes for PutBuf to wrap slices in.
var boxPool = sync.Pool{New: func() any { return new([]byte) }}

func init() {
	for i := range bufPools {
		size := 1 << (minBufClass + i)
		bufPools[i].New = func() any {
			b := make([]byte, 0, size)
			return &b
		}
	}
}

// bufClass returns the pool index whose buffers have capacity >= n, or
// -1 when n exceeds the largest class.
func bufClass(n int) int {
	if n <= 1<<minBufClass {
		return 0
	}
	c := bits.Len(uint(n - 1)) // ceil(log2(n))
	if c > maxBufClass {
		return -1
	}
	return c - minBufClass
}

// GetBuf returns a zero-length buffer with capacity at least n, drawn
// from the size-classed pool. Requests beyond the largest class are
// plainly allocated. Pass the (possibly grown) result to PutBuf when no
// reference to it remains.
func GetBuf(n int) []byte {
	c := bufClass(n)
	if c < 0 {
		return make([]byte, 0, n)
	}
	box := bufPools[c].Get().(*[]byte)
	b := (*box)[:0]
	*box = nil // the box must not pin the buffer it no longer owns
	boxPool.Put(box)
	return b
}

// growCap returns b with at least n free bytes of capacity past
// len(b), reallocating (and copying the prefix) only when needed.
func growCap(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	grown := make([]byte, len(b), len(b)+n)
	copy(grown, b)
	return grown
}

// extendLen returns b lengthened by n bytes, growing capacity with
// append's amortized doubling (growCap grows exactly, which would turn
// a decode loop with incremental growth quadratic). The new bytes are
// uninitialized garbage; callers must overwrite all of them before
// letting the slice escape.
func extendLen(b []byte, n int) []byte {
	l := len(b)
	for cap(b)-l < n {
		b = append(b[:cap(b)], 0)
	}
	return b[:l+n]
}

// clampGrow converts a length-header claim into a safe pre-allocation
// size: at most bound, the largest output the input stream could
// actually encode. Corrupt headers then cost at most one bounded
// allocation before decoding detects the truncation.
func clampGrow(claim uint64, bound int) int {
	if bound < 0 {
		bound = 0
	}
	if claim > uint64(bound) {
		return bound
	}
	return int(claim)
}

// PutBuf returns a buffer obtained from GetBuf (or grown from one) to
// the pool. The caller must not use b afterwards. Buffers whose
// capacity falls outside the pooled classes are dropped.
func PutBuf(b []byte) {
	c := bufClass(cap(b))
	// Only pool buffers whose capacity exactly matches a class size, so
	// a class never serves a buffer smaller than it promises.
	if c < 0 || cap(b) != 1<<(minBufClass+c) {
		return
	}
	box := boxPool.Get().(*[]byte)
	*box = b[:0]
	bufPools[c].Put(box)
}
