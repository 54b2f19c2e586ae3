// Quickstart: construct a Maya cache, watch the reuse-filtered state
// machine in action, then run a small two-core workload through the full
// simulator and print the headline statistics.
package main

import (
	"context"
	"fmt"

	"mayacache/maya"
)

func main() {
	fmt.Println("== Maya cache state machine ==")
	cfg := maya.DefaultCacheConfig(42)
	cfg.SetsPerSkew = 1024 // scaled-down instance: 2 skews x 1024 sets, 768KB data store
	cache, err := maya.NewCache(cfg)
	if err != nil {
		panic(err)
	}

	line := uint64(0xabc123)
	show := func(step string, r maya.Result) {
		fmt.Printf("%-34s tagHit=%-5v dataHit=%-5v\n", step, r.TagHit, r.DataHit)
	}
	// A demand read of a new line installs a priority-0 tag only: the
	// data store is reserved for lines with proven reuse.
	show("1st read (install priority-0):", cache.Access(maya.Access{Line: line, Type: maya.Read}))
	// The second read is a tag-only hit: the line earns a data entry but
	// the data still comes from memory.
	show("2nd read (promote to priority-1):", cache.Access(maya.Access{Line: line, Type: maya.Read}))
	// From the third access on, the data store serves the line.
	show("3rd read (data hit):", cache.Access(maya.Access{Line: line, Type: maya.Read}))
	// A writeback of a brand-new line allocates tag and data at once,
	// dirty, per the paper's Fig 3.
	show("writeback of a new line:", cache.Access(maya.Access{Line: line + 1, Type: maya.Writeback}))

	p0, p1, inv := cache.Population()
	fmt.Printf("tag-store population: %d priority-0, %d priority-1, %d invalid\n\n", p0, p1, inv)

	fmt.Println("== Two-core system: mcf (reuse-heavy) + lbm (streaming) ==")
	for _, design := range []maya.Design{maya.DesignBaseline, maya.DesignMaya} {
		sys, err := maya.NewSystem(maya.SystemConfig{
			Workloads: []string{"mcf", "lbm"},
			Design:    design,
			Seed:      1,
			FastHash:  true,
		})
		if err != nil {
			panic(err)
		}
		res, err := sys.Run(context.Background(), maya.RunSpec{Warmup: 1_000_000, ROI: 500_000})
		if err != nil {
			panic(err)
		}
		st := res.LLCStats
		fmt.Printf("%-9s  LLC MPKI %6.2f   dead-block %5.1f%%   tag-only hits %d\n",
			design, res.MPKI(), st.DeadBlockFraction()*100, st.TagOnlyHits)
		for _, c := range res.Cores {
			fmt.Printf("           core %d (%s): IPC %.3f\n", c.Core, c.Workload, c.IPC)
		}
	}
	fmt.Println("\nMaya serves the reuse-heavy core from a 25% smaller data store by")
	fmt.Println("never spending data entries on lbm's dead streaming fills.")
}
