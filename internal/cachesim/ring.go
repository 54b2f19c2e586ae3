package cachesim

// SPSC ring transport for the deterministic parallel run mode. Each core's
// front worker publishes fixed-size batches of step records into a
// single-producer/single-consumer ring the merge thread drains in order.
// Compared to a buffered channel of pooled chunks, the ring
//
//   - amortizes one synchronization (two atomic ops, usually no park) over
//     batchSteps private steps instead of paying a channel send/receive —
//     a lock, a copy, and often a goroutine wakeup — per transfer, and
//   - reuses its slots in place, so the steady-state drive loop moves no
//     memory through the allocator at all (no pool, no per-chunk churn).
//
// Order is trivially preserved: one producer appends at tail, one consumer
// reads at head, and slot i is only ever reused after the consumer
// advances past it. The merge's laggard replay order is therefore exactly
// the order a serial run steps its fronts inline, which is what keeps
// Results and mid-run snapshot blobs byte-identical to the serial run.

import "sync/atomic"

// batchSteps is the number of step records per published batch: one
// producer/consumer synchronization per 64 steps.
const batchSteps = 64

// ringSlots is the ring capacity in batches (power of two). It bounds the
// worker's run-ahead to ringSlots*batchSteps steps, which in turn bounds
// the replay distance snapshot replicas cover.
const ringSlots = 32

// batch is one slot's worth of consecutive step records for one core,
// struct-of-arrays: step i's shared ops are the next nOps[i] entries of
// ops, in replay order. The fixed-size lanes live inline in the slot; ops
// is the only dynamic part and is reused in place, so after the first few
// batches grow it, publishing allocates nothing. A serial run's inline
// source reuses one batch that holds a single record.
type batch struct {
	n     int
	gaps  [batchSteps]int32
	kinds [batchSteps]uint8
	nOps  [batchSteps]uint16
	ops   []sharedOp
}

func (b *batch) reset() {
	b.n = 0
	b.ops = b.ops[:0]
}

// ring is the SPSC batch queue between one front worker (producer) and
// the merge thread (consumer). head/tail are free-running slot counters;
// tail-head is the number of published, unconsumed batches. The atomic
// stores/loads carry the happens-before edges: everything the producer
// wrote into a slot before its tail.Add is visible to the consumer after
// it loads that tail value (and symmetrically for head on slot reuse).
//
// Parking is cooperative, not spinning: when the producer finds the ring
// full (or the consumer finds it empty) it parks on a capacity-1 wake
// channel the other side tickles after every advance. The check-park-
// recheck loop makes lost wakeups harmless — a signal raced between the
// check and the park is sitting in the channel buffer and wakes the
// parker immediately for a recheck.
type ring struct {
	slots    [ringSlots]batch
	head     atomic.Uint64 // next slot the consumer reads
	tail     atomic.Uint64 // next slot the producer fills
	prodWake chan struct{} // consumer → producer: a slot was freed
	consWake chan struct{} // producer → consumer: a batch was published
	done     chan struct{} // closed by the producer after its final publish
}

func newRing() *ring {
	r := &ring{
		prodWake: make(chan struct{}, 1),
		consWake: make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	// Size every slot's op lane up front: a step rarely records more than
	// a handful of shared ops (demand + a few writebacks + prefetches), so
	// four per step covers all but pathological batches and the drive loop
	// stays allocation-free in steady state (see bench.TestMacroDriveZeroAlloc).
	for i := range r.slots {
		r.slots[i].ops = make([]sharedOp, 0, 4*batchSteps)
	}
	return r
}

func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default: // a wakeup is already pending; one is enough
	}
}

// acquire returns the producer's next writable slot, reset and ready to
// fill, parking while the ring is full. It returns nil when stop closes
// first — the merge abandoned the run and will never free another slot.
func (r *ring) acquire(stop <-chan struct{}) *batch {
	for r.tail.Load()-r.head.Load() == ringSlots {
		select {
		case <-r.prodWake:
		case <-stop:
			return nil
		}
	}
	b := &r.slots[r.tail.Load()&(ringSlots-1)]
	b.reset()
	return b
}

// publish makes the slot returned by the last acquire visible to the
// consumer.
func (r *ring) publish() {
	r.tail.Add(1)
	wake(r.consWake)
}

// close marks the stream complete. The producer's error slot (see
// stream.err) must be written before close, so a consumer that
// observes the drained, closed ring also observes the error.
func (r *ring) close() {
	close(r.done)
}

// consume returns the consumer's next published batch, parking while the
// ring is empty. It returns nil only when the ring is closed and fully
// drained; batches published before close are always delivered first.
func (r *ring) consume() *batch {
	for {
		if r.head.Load() != r.tail.Load() {
			return &r.slots[r.head.Load()&(ringSlots-1)]
		}
		select {
		case <-r.consWake:
		case <-r.done:
			if r.head.Load() == r.tail.Load() {
				return nil
			}
		}
	}
}

// release frees the batch returned by the last consume for reuse.
func (r *ring) release() {
	r.head.Add(1)
	wake(r.prodWake)
}
