package cachemodel

import "mayacache/internal/snapshot"

// statsFieldCount is a layout guard: it must track the number of counters
// serialized below, so adding a Stats field without updating the codec
// fails loudly at restore time instead of silently shifting every counter.
const statsFieldCount = 21

// SaveState serializes every counter in declaration order.
func (s *Stats) SaveState(e *snapshot.Encoder) {
	e.U8(statsFieldCount)
	e.U64(s.Accesses)
	e.U64(s.Reads)
	e.U64(s.Writebacks)
	e.U64(s.TagHits)
	e.U64(s.DataHits)
	e.U64(s.TagOnlyHits)
	e.U64(s.Misses)
	e.U64(s.DemandMisses)
	e.U64(s.WritebackMisses)
	e.U64(s.Fills)
	e.U64(s.DataFills)
	e.U64(s.SAEs)
	e.U64(s.GlobalTagEvictions)
	e.U64(s.GlobalDataEvictions)
	e.U64(s.WritebacksToMem)
	e.U64(s.DeadDataEvictions)
	e.U64(s.ReusedDataEvictions)
	e.U64(s.FirstDemandReuses)
	e.U64(s.InterCoreEvictions)
	e.U64(s.Flushes)
	e.U64(s.Rekeys)
}

// StateBound implements snapshot.Stateful: the field count and every
// counter.
func (*Stats) StateBound() int { return 1 + 8*statsFieldCount }

// RestoreState deserializes counters written by SaveState.
func (s *Stats) RestoreState(d *snapshot.Decoder) error {
	if n := d.U8(); d.Err() == nil && n != statsFieldCount {
		d.Fail("stats", "field count %d, expected %d", n, statsFieldCount)
	}
	s.Accesses = d.U64()
	s.Reads = d.U64()
	s.Writebacks = d.U64()
	s.TagHits = d.U64()
	s.DataHits = d.U64()
	s.TagOnlyHits = d.U64()
	s.Misses = d.U64()
	s.DemandMisses = d.U64()
	s.WritebackMisses = d.U64()
	s.Fills = d.U64()
	s.DataFills = d.U64()
	s.SAEs = d.U64()
	s.GlobalTagEvictions = d.U64()
	s.GlobalDataEvictions = d.U64()
	s.WritebacksToMem = d.U64()
	s.DeadDataEvictions = d.U64()
	s.ReusedDataEvictions = d.U64()
	s.FirstDemandReuses = d.U64()
	s.InterCoreEvictions = d.U64()
	s.Flushes = d.U64()
	s.Rekeys = d.U64()
	return d.Err()
}

var _ snapshot.Stateful = (*Stats)(nil)
