package experiments

import (
	"mayacache/internal/baseline"
	"mayacache/internal/cachemodel"
	"mayacache/internal/partition"
)

// newPartitionLLC builds a partitioned LLC for Table XI, kind one of
// "way", "set", "flex": the Baseline row's SRRIP cache, partitioned.
func newPartitionLLC(kind string, cores int, seed uint64) cachemodel.LLC {
	var k partition.Kind
	switch kind {
	case "way":
		k = partition.WayPartition
	case "set":
		k = partition.SetPartition
	case "flex":
		k = partition.FlexSetPartition
	default:
		panic("experiments: unknown partition kind " + kind)
	}
	return partition.New(partition.Config{
		Sets:        cachemodel.DefaultSetsPerCore * cores,
		Ways:        cachemodel.Baseline.Ways(),
		Domains:     cores,
		Kind:        k,
		Replacement: baseline.SRRIP,
		Seed:        seed,
	})
}
