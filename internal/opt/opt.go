// Package opt implements Belady's MIN (optimal offline replacement) over a
// recorded line-address stream. The paper motivates Maya with the
// observation that decades of LLC work have pushed replacement toward
// Belady's bound [31]; this analyzer quantifies, for any captured
// workload, how far a policy is from that bound and how much of the gap
// comes from dead-on-arrival fills — the population Maya refuses to store.
package opt

import (
	"container/heap"
	"fmt"
)

// Result summarizes an offline analysis.
type Result struct {
	// Accesses is the stream length.
	Accesses uint64
	// Distinct is the number of distinct lines (the compulsory-miss
	// floor).
	Distinct uint64
	// Misses is Belady-MIN's miss count at the given capacity.
	Misses uint64
	// DeadFills counts fills whose line is never referenced again — the
	// stream's inherent dead-on-arrival population (independent of
	// capacity).
	DeadFills uint64
}

// HitRate returns MIN's hit rate.
func (r Result) HitRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return 1 - float64(r.Misses)/float64(r.Accesses)
}

// nextUseHeap is a max-heap over (nextUse, line) pairs: MIN evicts the
// resident line whose next use is farthest away.
type nextUseItem struct {
	line    uint64
	nextUse int64 // stream index of next reference; maxInt64 = never
}

type nextUseHeap []nextUseItem

func (h nextUseHeap) Len() int           { return len(h) }
func (h nextUseHeap) Less(i, j int) bool { return h[i].nextUse > h[j].nextUse }
func (h nextUseHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nextUseHeap) Push(x any)        { *h = append(*h, x.(nextUseItem)) }
func (h *nextUseHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

const never = int64(1) << 62

// Analyze runs Belady's MIN over the stream at the given fully-associative
// capacity (in lines) and returns the optimal miss count plus stream
// statistics. It is O(n log capacity) time and O(n) space.
func Analyze(stream []uint64, capacity int) (Result, error) {
	if capacity <= 0 {
		return Result{}, fmt.Errorf("opt: capacity must be positive, got %d", capacity)
	}
	n := len(stream)
	res := Result{Accesses: uint64(n)}

	// next[i] = index of the next reference to stream[i]'s line, or
	// `never`.
	next := make([]int64, n)
	last := make(map[uint64]int, n/4+1)
	for i := n - 1; i >= 0; i-- {
		if j, ok := last[stream[i]]; ok {
			next[i] = int64(j)
		} else {
			next[i] = never
		}
		last[stream[i]] = i
	}
	res.Distinct = uint64(len(last))

	// resident maps line -> current heap validity stamp; stale heap
	// entries (superseded next-use values) are skipped lazily.
	type residentInfo struct {
		nextUse int64
	}
	resident := make(map[uint64]residentInfo, capacity)
	h := &nextUseHeap{}

	for i := 0; i < n; i++ {
		line := stream[i]
		nu := next[i]
		if info, ok := resident[line]; ok {
			// Hit: refresh the next-use (lazy deletion: push the new
			// value; stale ones are skipped on pop).
			_ = info
			resident[line] = residentInfo{nextUse: nu}
			heap.Push(h, nextUseItem{line: line, nextUse: nu})
			continue
		}
		// Miss.
		res.Misses++
		if nu == never {
			res.DeadFills++
			// MIN would bypass a never-again line entirely; modeling a
			// non-bypassing cache, it becomes the immediate eviction
			// candidate. Either way it never displaces a useful line,
			// so skip installing it.
			continue
		}
		if len(resident) >= capacity {
			// Evict the farthest-next-use resident line.
			for {
				item := heap.Pop(h).(nextUseItem)
				info, ok := resident[item.line]
				if ok && info.nextUse == item.nextUse {
					delete(resident, item.line)
					break
				}
				// Stale entry; keep popping.
			}
		}
		resident[line] = residentInfo{nextUse: nu}
		heap.Push(h, nextUseItem{line: line, nextUse: nu})
	}
	return res, nil
}

// Record captures n line addresses from a generator-like source. The
// source function returns one line address per call.
func Record(nextLine func() uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = nextLine()
	}
	return out
}
