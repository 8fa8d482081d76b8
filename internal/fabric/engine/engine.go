// Package engine materializes a fabric.Spec as a running multi-cube
// simulation: one core.HMC object holding every cube of the system
// graph, driven in lockstep by the engine's deterministic clock. The
// vault stages walk every (cube, vault) unit the way they walk one
// cube's vaults, so results are bit-identical from run to run, and one
// core.Checkpoint captures the whole fabric including every in-flight
// inter-cube packet.
package engine

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"hmcsim/internal/core"
	"hmcsim/internal/fabric"
	"hmcsim/internal/host"
	"hmcsim/internal/workload"
)

// System is a built fabric: the spec, the resolved fabric-level engine
// configuration and the engine itself.
type System struct {
	spec fabric.Spec
	cfg  core.Config
	iv   fabric.Interleave
	h    *core.HMC
}

// Config derives the fabric-level engine configuration from a
// single-cube configuration: the device count becomes the cube count and
// the spec's link latency is installed. Everything else — vault shape,
// queue depths, fault model — applies per cube unchanged.
func Config(spec fabric.Spec, cube core.Config) core.Config {
	cfg := cube
	cfg.NumDevs = spec.NumCubes()
	cfg.LinkLatency = spec.LinkLatency
	return cfg
}

// Build wires spec over identical cubes configured by cube (whose
// NumDevs is ignored) and constructs the engine. Extra options thread
// through to core.NewWithOptions — tracing, fault overrides, routers.
func Build(spec fabric.Spec, cube core.Config, opts ...core.Option) (*System, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg := Config(spec, cube)
	t, err := spec.Graph(cfg.NumLinks)
	if err != nil {
		return nil, err
	}
	all := []core.Option{core.WithTopology(t)}
	if r := spec.Router(); r != nil {
		all = append(all, core.WithRouter(r))
	}
	all = append(all, opts...)
	h, err := core.NewWithOptions(cfg, all...)
	if err != nil {
		return nil, err
	}
	return &System{spec: spec, cfg: cfg, iv: spec.Interleave(), h: h}, nil
}

// Engine returns the underlying simulation object.
func (s *System) Engine() *core.HMC { return s.h }

// Config returns the resolved fabric-level engine configuration.
func (s *System) Config() core.Config { return s.cfg }

// Spec returns the system graph the fabric was built from.
func (s *System) Spec() fabric.Spec { return s.spec }

// InjectDev returns the cube whose host links carry injected traffic.
func (s *System) InjectDev() int { return s.spec.InjectCube }

// Capacity returns the flat host-visible capacity in bytes: the per-cube
// capacity times the cube count (the interleave's address space).
func (s *System) Capacity() uint64 {
	return uint64(s.cfg.CapacityGB) << 30 * uint64(s.cfg.NumDevs)
}

// Route maps a flat host address to its owning cube and the cube-local
// address the request carries — the host.Options.Route hook. It is pure,
// so resumed runs replay it deterministically.
func (s *System) Route(a workload.Access) (cube int, addr uint64) {
	return s.iv.Shard(a.Addr)
}

// NewDriver builds a host driver attached at the fabric's injection cube
// with the interleave route installed. Caller-supplied options other
// than Dev and Route pass through.
func (s *System) NewDriver(opts host.Options) (*host.Driver, error) {
	opts.Dev = s.spec.InjectCube
	opts.Route = s.Route
	return host.NewDriver(s.h, opts)
}

// LinkUse is the traffic census of one inter-cube cable, in FLITs per
// direction. AB counts FLITs flowing from Edge.A toward Edge.B (request
// FLITs landing at B plus response FLITs relayed out of A on this link).
type LinkUse struct {
	Edge    fabric.Edge
	FlitsAB uint64
	FlitsBA uint64
}

// Totals is the fabric-level traffic summary: per-cube counters, total
// routed hops, packets that crossed cube boundaries and the per-link
// census.
type Totals struct {
	// Cubes holds the per-cube counters, indexed by cube ID.
	Cubes []core.CubeStats
	// Hops counts inter-cube link crossings in both directions: request
	// forwards (core.Stats.RouteHops) plus response relays.
	Hops uint64
	// IntercubePackets counts request packets serviced by a cube other
	// than the injection cube — traffic that crossed the fabric at least
	// once. (Responses surface at the nearest host port, so the request
	// direction is the faithful crossing count.)
	IntercubePackets uint64
	// Links is the per-cable FLIT census, each cable once.
	Links []LinkUse
}

// Totals computes the summary from the engine's current state. Counters
// are engine-lifetime totals, unaffected by any warm-up window.
func (s *System) Totals() Totals {
	t := Totals{Cubes: s.h.CubeStats(), Hops: s.h.Stats().RouteHops}
	for c, cs := range t.Cubes {
		t.Hops += cs.RspRelayed
		if c != s.spec.InjectCube {
			t.IntercubePackets += cs.Delivered + cs.Modes
		}
	}
	top := s.h.Topology()
	for dev := 0; dev < top.NumDevs(); dev++ {
		for l := 0; l < top.NumLinks(); l++ {
			p := top.Peer(dev, l)
			if p.Cube < 0 || p.Cube == top.HostID() || p.Cube < dev {
				continue
			}
			a, b := s.h.Device(dev), s.h.Device(p.Cube)
			t.Links = append(t.Links, LinkUse{
				Edge:    fabric.Edge{A: dev, ALink: l, B: p.Cube, BLink: p.Link},
				FlitsAB: b.Links[p.Link].ReqFlits + a.Links[l].RspFlits,
				FlitsBA: a.Links[l].ReqFlits + b.Links[p.Link].RspFlits,
			})
		}
	}
	return t
}

// Digest is the fabric-wide traffic digest: a 64-bit FNV-1a over every
// per-cube counter, the hop totals and the per-link census, in cube and
// link order. Together with the engine's state digest and the driver's
// result digest it pins the fabric conformance contract: bit-identical
// for every worker count and across checkpoint/resume.
func (t Totals) Digest() uint64 {
	d := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		d.Write(buf[:])
	}
	w64(uint64(len(t.Cubes)))
	for _, cs := range t.Cubes {
		w64(cs.Delivered)
		w64(cs.Reads)
		w64(cs.Writes)
		w64(cs.Atomics)
		w64(cs.Modes)
		w64(cs.Responses)
		w64(cs.ReqRelayed)
		w64(cs.RspRelayed)
	}
	w64(t.Hops)
	w64(t.IntercubePackets)
	for _, lu := range t.Links {
		w64(uint64(lu.Edge.A)<<48 | uint64(lu.Edge.ALink)<<32 |
			uint64(lu.Edge.B)<<16 | uint64(lu.Edge.BLink))
		w64(lu.FlitsAB)
		w64(lu.FlitsBA)
	}
	return d.Sum64()
}

// String renders the digest the way the API does.
func (t Totals) String() string {
	return fmt.Sprintf("fabric[%d cubes, %d hops, %d inter-cube packets]",
		len(t.Cubes), t.Hops, t.IntercubePackets)
}
