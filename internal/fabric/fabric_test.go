package fabric

import (
	"encoding/json"
	"testing"
	"testing/quick"

	"hmcsim/internal/topo"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"mesh 2x2", Spec{Topology: TopoMesh, Rows: 2, Cols: 2}, true},
		{"mesh 1x1", Spec{Topology: TopoMesh, Rows: 1, Cols: 1}, false},
		{"mesh no shape", Spec{Topology: TopoMesh}, false},
		{"torus 3x3", Spec{Topology: TopoTorus, Rows: 3, Cols: 3}, true},
		{"torus 2x2", Spec{Topology: TopoTorus, Rows: 2, Cols: 2}, false},
		{"ring 4", Spec{Topology: TopoRing, Cubes: 4}, true},
		{"ring 2", Spec{Topology: TopoRing, Cubes: 2}, false},
		{"chain 1", Spec{Topology: TopoChain, Cubes: 1}, true},
		{"unknown", Spec{Topology: "hypercube", Cubes: 8}, false},
		{"empty", Spec{}, false},
		{"grid cube count agrees", Spec{Topology: TopoMesh, Rows: 2, Cols: 2, Cubes: 4}, true},
		{"grid cube count disagrees", Spec{Topology: TopoMesh, Rows: 2, Cols: 2, Cubes: 5}, false},
		{"custom ok", Spec{Topology: TopoCustom, Cubes: 2,
			Links: []Edge{{A: 0, ALink: 0, B: 1, BLink: 0}},
			Hosts: []HostPort{{Cube: 0, Link: 1}}}, true},
		{"custom implied by edges", Spec{Cubes: 2,
			Links: []Edge{{A: 0, ALink: 0, B: 1, BLink: 0}},
			Hosts: []HostPort{{Cube: 0, Link: 1}}}, true},
		{"custom no hosts", Spec{Topology: TopoCustom, Cubes: 2,
			Links: []Edge{{A: 0, ALink: 0, B: 1, BLink: 0}}}, false},
		{"custom edge out of range", Spec{Topology: TopoCustom, Cubes: 2,
			Links: []Edge{{A: 0, ALink: 0, B: 2, BLink: 0}},
			Hosts: []HostPort{{Cube: 0, Link: 1}}}, false},
		{"custom host out of range", Spec{Topology: TopoCustom, Cubes: 2,
			Hosts: []HostPort{{Cube: 2, Link: 0}}}, false},
		{"negative latency", Spec{Topology: TopoRing, Cubes: 4, LinkLatency: -1}, false},
		{"huge latency", Spec{Topology: TopoRing, Cubes: 4, LinkLatency: 2048}, false},
		{"latency ok", Spec{Topology: TopoRing, Cubes: 4, LinkLatency: 16}, true},
		{"interleave not pow2", Spec{Topology: TopoRing, Cubes: 4, InterleaveBytes: 48}, false},
		{"interleave too small", Spec{Topology: TopoRing, Cubes: 4, InterleaveBytes: 8}, false},
		{"interleave ok", Spec{Topology: TopoRing, Cubes: 4, InterleaveBytes: 256}, true},
		{"inject out of range", Spec{Topology: TopoRing, Cubes: 4, InjectCube: 4}, false},
		{"inject ok", Spec{Topology: TopoRing, Cubes: 4, InjectCube: 3}, true},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestSpecKindAndCount(t *testing.T) {
	mesh := Spec{Topology: TopoMesh, Rows: 2, Cols: 3}
	if mesh.Kind() != TopoMesh || mesh.NumCubes() != 6 {
		t.Errorf("mesh: kind %q cubes %d", mesh.Kind(), mesh.NumCubes())
	}
	custom := Spec{Cubes: 2, Links: []Edge{{A: 0, B: 1}}}
	if custom.Kind() != TopoCustom {
		t.Errorf("edge list without name resolved to %q, want custom", custom.Kind())
	}
	if mesh.Router() == nil {
		t.Error("mesh spec has no dimension-order router")
	}
	if (&Spec{Topology: TopoRing, Cubes: 4}).Router() != nil {
		t.Error("ring spec has a grid router")
	}
}

// TestGraphShapes materializes each named topology and checks the wiring
// against the topo builders directly.
func TestGraphShapes(t *testing.T) {
	specs := []Spec{
		{Topology: TopoMesh, Rows: 2, Cols: 2},
		{Topology: TopoTorus, Rows: 3, Cols: 3},
		{Topology: TopoRing, Cubes: 4},
		{Topology: TopoChain, Cubes: 3},
	}
	for _, s := range specs {
		g, err := s.Graph(4)
		if err != nil {
			if s.Topology == TopoTorus {
				// A 3x3 torus needs 4 device links plus a host port and
				// may not fit in 4 links; accept the builder's verdict.
				continue
			}
			t.Fatalf("%s: %v", s.Topology, err)
		}
		if g.NumDevs() != s.NumCubes() {
			t.Errorf("%s: graph has %d devices, spec %d cubes", s.Topology, g.NumDevs(), s.NumCubes())
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: invalid graph: %v", s.Topology, err)
		}
	}
}

// samePeers requires two topologies to be wired identically port by
// port.
func samePeers(t *testing.T, label string, a, b *topo.Topology) {
	t.Helper()
	if a.NumDevs() != b.NumDevs() || a.NumLinks() != b.NumLinks() || a.HostID() != b.HostID() {
		t.Fatalf("%s: shape mismatch: %dx%d host %d vs %dx%d host %d", label,
			a.NumDevs(), a.NumLinks(), a.HostID(), b.NumDevs(), b.NumLinks(), b.HostID())
	}
	for dev := 0; dev < a.NumDevs(); dev++ {
		for l := 0; l < a.NumLinks(); l++ {
			if pa, pb := a.Peer(dev, l), b.Peer(dev, l); pa != pb {
				t.Fatalf("%s: port %d:%d wired to %+v vs %+v", label, dev, l, pa, pb)
			}
		}
	}
}

// TestFromTopologyRoundTrip captures each named topology as a custom
// spec, marshals it through JSON, and requires the re-materialized graph
// to be wired identically — the cmd/hmcsim-topo -json contract.
func TestFromTopologyRoundTrip(t *testing.T) {
	build := []struct {
		name string
		mk   func() (*topo.Topology, error)
	}{
		{"mesh2x2", func() (*topo.Topology, error) { return topo.Mesh(2, 2, 4) }},
		{"ring4", func() (*topo.Topology, error) { return topo.Ring(4, 4) }},
		{"chain3", func() (*topo.Topology, error) { return topo.Chain(3, 4) }},
	}
	for _, b := range build {
		orig, err := b.mk()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		spec := FromTopology(orig)
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: captured spec invalid: %v", b.name, err)
		}
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		var back Spec
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		got, err := back.Graph(orig.NumLinks())
		if err != nil {
			t.Fatalf("%s: re-materialize: %v", b.name, err)
		}
		samePeers(t, b.name, orig, got)
	}
}

func TestInterleaveRoundTrip(t *testing.T) {
	for _, iv := range []Interleave{
		{Ways: 4, Block: 64},
		{Ways: 3, Block: 128}, // non-power-of-two cube count
		{Ways: 1, Block: 64},
	} {
		seen := make(map[int]bool)
		for addr := uint64(0); addr < 8192; addr += 16 {
			cube, local := iv.Shard(addr)
			if cube < 0 || cube >= iv.Ways {
				t.Fatalf("iv %+v: addr %#x sharded to cube %d", iv, addr, cube)
			}
			seen[cube] = true
			if back := iv.Unshard(cube, local); back != addr {
				t.Fatalf("iv %+v: addr %#x -> (%d, %#x) -> %#x", iv, addr, cube, local, back)
			}
		}
		if len(seen) != iv.Ways {
			t.Errorf("iv %+v: only %d of %d cubes saw traffic", iv, len(seen), iv.Ways)
		}
	}
}

// TestInterleaveQuickRoundTrip round-trips random addresses across a
// 40-bit space.
func TestInterleaveQuickRoundTrip(t *testing.T) {
	for _, iv := range []Interleave{
		{Ways: 4, Block: 64},
		{Ways: 8, Block: 64},
		{Ways: 3, Block: 128},
	} {
		f := func(raw uint64) bool {
			addr := raw & (1<<40 - 1)
			cube, local := iv.Shard(addr)
			return cube >= 0 && cube < iv.Ways && iv.Unshard(cube, local) == addr
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
			t.Errorf("iv %+v: %v", iv, err)
		}
	}
}

// TestInterleaveRotatesBlocks pins that consecutive blocks rotate across
// cubes and that cube-local addresses are dense.
func TestInterleaveRotatesBlocks(t *testing.T) {
	iv := Interleave{Ways: 4, Block: 64}
	for i := uint64(0); i < 16; i++ {
		cube, local := iv.Shard(i * 64)
		if cube != int(i%4) {
			t.Errorf("block %d on cube %d, want %d", i, cube, i%4)
		}
		if want := i / 4 * 64; local != want {
			t.Errorf("block %d local addr %#x, want %#x", i, local, want)
		}
	}
}

// TestInterleaveMatchesBitSlice pins the power-of-two equivalence with
// the classic bit-slice channel interleave: channel bits extracted at
// the block boundary, upper bits shifted down.
func TestInterleaveMatchesBitSlice(t *testing.T) {
	const ways, block = 4, 64
	iv := Interleave{Ways: ways, Block: block}
	for addr := uint64(0); addr < 1<<16; addr += 13 {
		cube, local := iv.Shard(addr)
		wantCube := int(addr / block % ways)
		wantLocal := (addr/block/ways)*block + addr%block
		if cube != wantCube || local != wantLocal {
			t.Fatalf("addr %#x: got (%d, %#x), bit-slice gives (%d, %#x)",
				addr, cube, local, wantCube, wantLocal)
		}
	}
}

func TestInterleaveDefaultBlock(t *testing.T) {
	s := Spec{Topology: TopoRing, Cubes: 4}
	if iv := s.Interleave(); iv.Block != 64 || iv.Ways != 4 {
		t.Errorf("default interleave = %+v, want 4 ways of 64 bytes", iv)
	}
}
