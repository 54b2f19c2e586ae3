package maya_test

import (
	"fmt"

	"mayacache/maya"
)

// The Maya state machine: a line earns its data entry by demonstrating
// reuse.
func ExampleNewCache() {
	cfg := maya.DefaultCacheConfig(42)
	cfg.SetsPerSkew = 256 // scaled-down instance for the example
	cache, err := maya.NewCache(cfg)
	if err != nil {
		panic(err)
	}

	line := uint64(0x1234)
	r1 := cache.Access(maya.Access{Line: line, Type: maya.Read})
	r2 := cache.Access(maya.Access{Line: line, Type: maya.Read})
	r3 := cache.Access(maya.Access{Line: line, Type: maya.Read})
	fmt.Println("1st:", r1.TagHit, r1.DataHit)
	fmt.Println("2nd:", r2.TagHit, r2.DataHit)
	fmt.Println("3rd:", r3.TagHit, r3.DataHit)
	// Output:
	// 1st: false false
	// 2nd: true false
	// 3rd: true true
}

// The analytical Birth-Death model yields the paper's headline security
// number for the default configuration.
func ExampleInstallsPerSAE() {
	installs, err := maya.InstallsPerSAE(maya.SecurityPoint{
		BaseWays: 6, ReuseWays: 3, InvalidWays: 6,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("one SAE per ~1e%d installs\n", int(len(fmt.Sprintf("%.0f", installs))-1))
	// Output:
	// one SAE per ~1e33 installs
}

// Storage accounting reproduces Table VIII exactly.
func ExampleStorageAccount() {
	maya8, err := maya.StorageAccount(maya.DesignMaya)
	if err != nil {
		panic(err)
	}
	mirage, err := maya.StorageAccount(maya.DesignMirage)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Maya:   %.0f KB (%+.1f%%)\n", maya8.TotalKB, maya8.OverheadVsBaseline()*100)
	fmt.Printf("Mirage: %.0f KB (%+.1f%%)\n", mirage.TotalKB, mirage.OverheadVsBaseline()*100)
	// Output:
	// Maya:   16944 KB (-2.1%)
	// Mirage: 20856 KB (+20.5%)
}

// Eviction-set construction observes zero SAEs against Maya.
func ExampleBuildEvictionSet() {
	cfg := maya.DefaultCacheConfig(7)
	cfg.SetsPerSkew = 64
	cache, err := maya.NewCache(cfg)
	if err != nil {
		panic(err)
	}
	res := maya.BuildEvictionSet(cache, 0xfeed, 2048, 10_000_000, 7)
	fmt.Println("found:", res.Found, "SAEs:", res.SAEsObserved)
	// Output:
	// found: false SAEs: 0
}
