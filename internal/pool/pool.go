// Package pool provides size-bucketed scratch-buffer pools for the hot
// trial paths of the simulator.
//
// The envelope kernels, the uplink correlator and the Monte-Carlo trial
// loops all need short-lived float64/complex128 work slices of a handful
// of recurring sizes (2^k grids, carrier-count vectors). Allocating them per
// call keeps the garbage collector busy on exactly the paths the
// experiment harness hammers millions of times. This package hands out
// zeroed slices from per-size free lists and takes them back when the
// caller is done.
//
// Buffers are bucketed by capacity rounded up to a power of two, so a
// request for 8192 and a request for 8000 share the same bucket. Each
// bucket holds a bounded free list; beyond the bound, returned buffers are
// dropped for the garbage collector to reclaim, which keeps a burst of
// parallel trials from pinning memory forever.
//
// Contract: a slice obtained from Float64/Complex128 is zeroed, has
// exactly the requested length, and must not be referenced after it is
// passed back to the matching Put function. Put accepts any slice (not
// only pooled ones); slices whose capacity is not a power of two are
// simply dropped.
package pool

import (
	"math/bits"
	"sync"
)

// maxBucket caps pooled capacities at 2^maxBucket elements (1 Mi); larger
// slices are allocated directly and dropped on Put.
const maxBucket = 20

// perBucketCap bounds each bucket's free list. Trial loops run at most
// ~GOMAXPROCS concurrent workers with a few live buffers each, so a small
// bound suffices; it exists to keep pathological Put storms from hoarding.
const perBucketCap = 64

// typedPool is a per-element-type set of buckets. The generic
// implementation keeps the float64 and complex128 pools structurally
// identical without reflection.
type typedPool[T any] struct {
	buckets [maxBucket + 1]struct {
		mu   sync.Mutex
		free [][]T
	}
}

// bucketFor returns the bucket index for a request of n elements, or -1
// when the size is unpoolable.
func bucketFor(n int) int {
	if n <= 0 {
		return -1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n); 1 -> 0
	if b > maxBucket {
		return -1
	}
	return b
}

func (p *typedPool[T]) get(n int) []T {
	b := bucketFor(n)
	if b < 0 {
		return make([]T, n)
	}
	bk := &p.buckets[b]
	bk.mu.Lock()
	if len(bk.free) > 0 {
		s := bk.free[len(bk.free)-1]
		bk.free = bk.free[:len(bk.free)-1]
		bk.mu.Unlock()
		s = s[:n]
		clear(s)
		return s
	}
	bk.mu.Unlock()
	return make([]T, n, 1<<b)
}

func (p *typedPool[T]) put(s []T) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return // not one of ours; let the GC have it
	}
	b := bits.Len(uint(c - 1))
	if c == 1 {
		b = 0
	}
	if b > maxBucket {
		return
	}
	bk := &p.buckets[b]
	bk.mu.Lock()
	if len(bk.free) < perBucketCap {
		bk.free = append(bk.free, s[:0])
	}
	bk.mu.Unlock()
}

var (
	f64Pool  typedPool[float64]
	c128Pool typedPool[complex128]
)

// Float64 returns a zeroed []float64 of length n from the pool.
func Float64(n int) []float64 { return f64Pool.get(n) }

// PutFloat64 returns a slice obtained from Float64 to the pool. The caller
// must not use s afterwards.
func PutFloat64(s []float64) { f64Pool.put(s) }

// Complex128 returns a zeroed []complex128 of length n from the pool.
func Complex128(n int) []complex128 { return c128Pool.get(n) }

// PutComplex128 returns a slice obtained from Complex128 to the pool. The
// caller must not use s afterwards.
func PutComplex128(s []complex128) { c128Pool.put(s) }
