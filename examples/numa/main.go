// Numa demonstrates multiple independent HMC-Sim objects attached to one
// host — the paper's non-uniform-memory-access usage: "an application may
// contain more than one HMC-Sim object", with each object's rudimentary
// clock domain operating completely independently, "analogous to the
// current system on chip methodology of utilizing multiple memory
// channels per socket". The channels are detached fabric engines
// (fabric/engine.BuildChannels/RunDetached) running concurrently in
// goroutines, and aggregate bandwidth scales with the channel count.
package main

import (
	"flag"
	"fmt"
	"log"

	"hmcsim/internal/core"
	"hmcsim/internal/fabric"
	"hmcsim/internal/fabric/engine"
	"hmcsim/internal/host"
	"hmcsim/internal/workload"
)

func main() {
	perChannel := flag.Uint64("requests", 1<<17, "requests per channel")
	flag.Parse()

	obj := core.Config{
		NumDevs: 1, NumLinks: 4, NumVaults: 16, QueueDepth: 64,
		NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 128,
	}

	fmt.Printf("per-channel object: %v, %d requests each\n\n", obj, *perChannel)
	fmt.Printf("%-9s %12s %14s %16s\n", "channels", "cycles", "total req", "agg req/cycle")

	var base float64
	for _, channels := range []int{1, 2, 4, 8} {
		chans, err := engine.BuildChannels(channels, obj)
		if err != nil {
			log.Fatal(err)
		}
		res, err := engine.RunDetached(chans, func(ch int) workload.Generator {
			g, err := workload.NewRandomAccess(uint32(ch+1), 2<<30, 64, 50)
			if err != nil {
				log.Fatal(err)
			}
			return g
		}, *perChannel, host.Options{})
		if err != nil {
			log.Fatal(err)
		}
		// The channels run in their own clock domains, so the run's
		// wall clock is the slowest channel's cycle count.
		var cycles, total uint64
		for _, r := range res {
			cycles = max(cycles, r.Cycles)
			total += r.Sent
		}
		tput := float64(total) / float64(cycles)
		if channels == 1 {
			base = tput
		}
		fmt.Printf("%-9d %12d %14d %16.1f  (%.2fx)\n",
			channels, cycles, total, tput, tput/base)
	}

	// Channel interleave demonstration: consecutive blocks round-robin
	// across channels with dense channel-local addresses.
	iv := fabric.Interleave{Ways: 4, Block: 64}
	fmt.Println("\nblock-interleaved sharding of a flat address space:")
	for i := uint64(0); i < 8; i++ {
		ch, local := iv.Shard(i * 64)
		fmt.Printf("  system %#06x -> channel %d local %#06x\n", i*64, ch, local)
	}
}
