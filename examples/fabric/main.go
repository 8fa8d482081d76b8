// Fabric demonstrates the system-graph layer: a declarative JSON spec
// wires four HMC cubes into a 2x2 mesh behind one host, requests spread
// across the cubes through a block interleave, and packets route across
// cube boundaries over multi-cycle links with dimension-order routing.
// The whole fabric runs as one lockstep deterministic simulation, so the
// digests printed at the end are bit-identical from run to run.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"log"

	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/fabric"
	"hmcsim/internal/fabric/engine"
	"hmcsim/internal/host"
	"hmcsim/internal/workload"
)

//go:embed mesh2x2.json
var mesh2x2 []byte

func main() {
	requests := flag.Uint64("requests", 1<<15, "requests to inject")
	flag.Parse()

	var spec fabric.Spec
	if err := json.Unmarshal(mesh2x2, &spec); err != nil {
		log.Fatal(err)
	}
	cube := core.Config{
		NumDevs: 1, NumLinks: 4, NumVaults: 16, QueueDepth: 64,
		NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 128,
	}
	fmt.Printf("system graph: %s, %d cubes, link latency %d cycles, %d B interleave\n\n",
		spec.Kind(), spec.NumCubes(), spec.LinkLatency, spec.Interleave().Block)

	sys, err := engine.Build(spec, cube)
	if err != nil {
		log.Fatal(err)
	}
	d, err := sys.NewDriver(host.Options{})
	if err != nil {
		log.Fatal(err)
	}
	gen, err := workload.NewRandomAccess(3, sys.Capacity(), 64, 30)
	if err != nil {
		log.Fatal(err)
	}
	res, err := d.Run(gen, *requests)
	if err != nil {
		log.Fatal(err)
	}
	t := sys.Totals()
	fmt.Printf("%10s %12s %10s %18s %18s\n",
		"cycles", "inter-cube", "hops", "result digest", "fabric digest")
	fmt.Printf("%10d %12d %10d   %016x   %016x\n",
		res.Cycles, t.IntercubePackets, t.Hops, eval.ResultDigest(res), t.Digest())
	fmt.Println()
	fmt.Println("per-cube breakdown:")
	for c, cs := range t.Cubes {
		fmt.Printf("  cube %d: delivered %5d (r %5d / w %5d), relayed %5d requests\n",
			c, cs.Delivered, cs.Reads, cs.Writes, cs.ReqRelayed)
	}
}
