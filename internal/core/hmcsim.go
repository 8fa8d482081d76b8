package core

import (
	"errors"
	"fmt"

	"hmcsim/internal/device"
	"hmcsim/internal/fault"
	"hmcsim/internal/packet"
	"hmcsim/internal/reg"
	"hmcsim/internal/topo"
	"hmcsim/internal/trace"
)

// Errors returned by the simulation API.
var (
	// ErrStall indicates that the target arbitration queue had no free
	// slot (Send) or no candidate response packet (Recv). The host should
	// clock the simulation and retry.
	ErrStall = errors.New("hmcsim: stall")
	// ErrSealed indicates a topology mutation after simulation start.
	ErrSealed = errors.New("hmcsim: topology sealed after first send or clock")
	// ErrNotHostLink indicates a send or receive on a link that is not
	// connected to the host.
	ErrNotHostLink = errors.New("hmcsim: link is not a host link")
	// ErrLinkDown indicates a send or receive on a link whose link
	// configuration register has the link-down bit set.
	ErrLinkDown = errors.New("hmcsim: link is down (LC register)")
	// ErrLinkFailed indicates a send or receive on a link the fault
	// model has permanently failed. Unlike the administrative LC bit the
	// condition never clears; hosts should move traffic to a surviving
	// link.
	ErrLinkFailed = errors.New("hmcsim: link permanently failed (fault model)")
	// ErrRange indicates a device or link index outside the configured
	// topology. Returned errors wrap it with the offending index; test
	// with errors.Is(err, ErrRange).
	ErrRange = errors.New("hmcsim: device or link out of range")
	// ErrConfig indicates an invalid Config. Every error returned by
	// Config.Validate (and therefore by New) wraps it with the specific
	// complaint; test with errors.Is(err, ErrConfig).
	ErrConfig = errors.New("hmcsim: invalid configuration")
)

// LCLinkDown is the link-down control bit of the per-link LC registers.
// Setting it (via a MODE_WRITE packet or the JTAG interface) takes the
// link out of service: host sends and receives fail with ErrLinkDown and
// pass-through traffic stalls on the link until the bit clears.
const LCLinkDown uint64 = 1 << 0

// linkDown reports whether the link's LC register link-down bit is set.
func linkDown(d *device.Device, link int) bool {
	v, err := d.Regs.Read(reg.PhysLC0 + uint64(link))
	return err == nil && v&LCLinkDown != 0
}

// HMC is one HMC-Sim simulation object: a set of physically homogeneous
// HMC devices, their link topology, and a shared internal clock domain. An
// application may contain more than one HMC object to simulate
// architectural characteristics such as non-uniform memory access; objects
// are fully independent (devices cannot be linked across objects).
type HMC struct {
	cfg  Config
	devs []*device.Device
	topo *topo.Topology
	// routes is the live next-hop table, recomputed around permanently
	// failed links; routesPristine is the table of the undegraded fabric,
	// kept so degraded forwards can be recognized and counted.
	routes         *topo.Routes
	routesPristine *topo.Routes

	clk    uint64
	sealed bool

	tracer trace.Tracer
	mask   trace.Kind

	// seq holds the per-host-link 3-bit sequence counters used by
	// BuildMemRequest, indexed by link ID (a dense slice rather than a
	// map: the counter is drawn on every injected request).
	seq []uint8

	// pool is the free list every in-flight packet buffer is drawn from;
	// see packet.Pool for the ownership rules. Its in-use count doubles as
	// a cheap busy gate for the idle fast path in Clock.
	pool *packet.Pool

	// rootOrder and childOrder cache the device processing order for the
	// response and request sub-cycle stages.
	rootOrder, childOrder []int

	// rdbuf stages bank read data en route to a response packet (see
	// serviceVaultRequest); it never aliases packet storage.
	rdbuf [16]uint64

	// fault is the deterministic fault engine (see package fault).
	fault *fault.Engine
	// vaultFaults holds one independent fault stream per (device, vault),
	// indexed [dev][vault]. Each vault draws only from its own stream,
	// so a vault's fault schedule does not depend on traffic at other
	// vaults (see fault.VaultStream).
	vaultFaults [][]fault.VaultStream
	// retry holds the per-host-link retry buffers of the link
	// controllers, indexed [dev][link]: a transfer corrupted by a
	// transient fault waits here and is retransmitted transparently on
	// subsequent cycles.
	retry [][]retryState

	// router, when non-nil, computes the pristine routing tables instead
	// of breadth-first search (WithRouter; the fabric layer installs
	// dimension-order tables for grids). Degraded routing around failed
	// links always falls back to breadth-first search.
	router func(*topo.Topology) (*topo.Routes, error)

	stats Stats
	// cubeStats is the per-device traffic breakdown (see CubeStats);
	// updated only from serial sub-cycle stages.
	cubeStats []CubeStats

	// skip counts the idle cycles AdvanceIdle elided and the wakeups it
	// took. It lives outside Stats and outside StateDigest deliberately:
	// whether cycles were walked or skipped is an execution detail, and
	// the pinned digests must not depend on it (DESIGN.md §14).
	skip SkipStats

	// timedFaults is the sorted schedule of cycle-triggered link
	// failures (fault.Config.FailAt), cached at seal; timedIdx is the
	// count of entries already applied. The applied set at any clock
	// boundary is a pure function of clk, so checkpoints do not carry
	// the index — Restore recomputes it.
	timedFaults []fault.TimedLinkFailure
	timedIdx    int
}

// retryState is one link controller's retry buffer: a single in-flight
// transfer being replayed after transient faults. The buffer owns the
// pooled packet while pending is set.
type retryState struct {
	pending  bool
	attempts int
	packet   *packet.Packet
}

// New initializes one or more simulated HMC devices into a reset state.
// It is the analogue of hmcsim_init. The returned object has no links
// configured; wire the topology with ConnectHost / ConnectDevices /
// UseTopology before clocking.
func New(cfg Config) (*HMC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t, err := topo.New(cfg.NumDevs, cfg.NumLinks, cfg.HostID())
	if err != nil {
		return nil, err
	}
	h := &HMC{
		cfg:    cfg,
		topo:   t,
		tracer: trace.Nop{},
		mask:   trace.MaskNone,
		seq:    make([]uint8, cfg.NumLinks),
		pool:   packet.NewPool(),
		fault:  fault.NewEngine(cfg.effectiveFault()),
	}
	h.devs = make([]*device.Device, cfg.NumDevs)
	h.retry = make([][]retryState, cfg.NumDevs)
	for i := range h.devs {
		d, err := device.New(i, cfg.deviceConfig())
		if err != nil {
			return nil, err
		}
		h.devs[i] = d
		h.retry[i] = make([]retryState, cfg.NumLinks)
	}
	h.vaultFaults = make([][]fault.VaultStream, cfg.NumDevs)
	for i := range h.vaultFaults {
		h.vaultFaults[i] = make([]fault.VaultStream, cfg.NumVaults)
	}
	h.resetVaultFaults()
	h.cubeStats = make([]CubeStats, cfg.NumDevs)
	return h, nil
}

// resetVaultFaults rewinds every per-vault fault stream to its seed.
func (h *HMC) resetVaultFaults() {
	for dev := range h.vaultFaults {
		for vi := range h.vaultFaults[dev] {
			h.vaultFaults[dev][vi] = h.fault.VaultStream(dev, vi)
		}
	}
}

// Config returns the object's configuration.
func (h *HMC) Config() Config { return h.cfg }

// HostID returns the cube ID representing the host processor: one greater
// than the largest device cube ID.
func (h *HMC) HostID() int { return h.cfg.HostID() }

// Clk returns the current value of the 64-bit internal clock.
func (h *HMC) Clk() uint64 { return h.clk }

// Stats returns a snapshot of the engine counters.
func (h *HMC) Stats() Stats { return h.stats }

// SkipStats returns the idle-skip counters: cycles elided by
// AdvanceIdle and the number of bulk advances taken. The counters are
// observability only — they are outside Stats and outside StateDigest,
// so walked and skipped runs stay digest-identical.
func (h *HMC) SkipStats() SkipStats { return h.skip }

// Device returns device cube. It is exposed for analysis and tests;
// mutating a device mid-simulation is not supported.
func (h *HMC) Device(cube int) *device.Device {
	if cube < 0 || cube >= len(h.devs) {
		return nil
	}
	return h.devs[cube]
}

// Topology returns the link topology.
func (h *HMC) Topology() *topo.Topology { return h.topo }

// SetTracer installs the trace consumer. A nil tracer disables output.
func (h *HMC) SetTracer(t trace.Tracer) {
	if t == nil {
		h.tracer = trace.Nop{}
		return
	}
	h.tracer = t
}

// SetTraceMask designates the tracing verbosity: only events whose kind is
// present in the mask are emitted.
func (h *HMC) SetTraceMask(mask trace.Kind) { h.mask = mask }

// TraceMask returns the current verbosity mask.
func (h *HMC) TraceMask() trace.Kind { return h.mask }

// linkFailed reports whether the fault model has permanently failed the
// link endpoint.
func (h *HMC) linkFailed(dev, link int) bool { return h.fault.LinkFailed(dev, link) }

// faultTransient rolls a transient link fault for one transfer of p.
// ERROR response packets are exempt: a packet already poisoned by retry
// exhaustion is delivered best-effort so its tag is never lost, and the
// retry machinery cannot recurse on its own failure notifications.
func (h *HMC) faultTransient(p *packet.Packet) bool {
	if p.Cmd() == packet.CmdError {
		return false
	}
	return h.fault.Transient()
}

// LinkFailed reports whether a link endpoint has been permanently
// failed by the fault model. Hosts and injectors use it to steer
// traffic onto surviving links in degraded mode.
func (h *HMC) LinkFailed(dev, link int) bool {
	d := h.Device(dev)
	return d != nil && link >= 0 && link < len(d.Links) && h.linkFailed(dev, link)
}

// FailLink permanently fails a link through the fault model's
// administrative interface (the campaign driver's static failure
// injection). Both endpoints of a chained link fail together; routing
// recomputes around the dead link immediately.
func (h *HMC) FailLink(dev, link int) error {
	d := h.Device(dev)
	if d == nil {
		return fmt.Errorf("%w: device %d", ErrRange, dev)
	}
	if link < 0 || link >= len(d.Links) {
		return fmt.Errorf("%w: link %d", ErrRange, link)
	}
	h.failLink(dev, link)
	return nil
}

// failLink marks a link endpoint (and the device endpoint across it, if
// chained) permanently failed, records the event and recomputes the
// degraded routing tables.
func (h *HMC) failLink(dev, link int) {
	if !h.fault.FailLink(fault.LinkID{Dev: dev, Link: link}) {
		return
	}
	h.stats.LinkFailures++
	h.emit(trace.Event{
		Kind: trace.KindLinkFail, Dev: dev, Link: link,
		Quad: trace.None, Vault: trace.None, Bank: trace.None,
	})
	// A chained link is one physical cable: the peer endpoint dies with
	// it (counted once per endpoint for symmetry with LinkFailures).
	if p := h.topo.Peer(dev, link); p.Cube >= 0 && p.Cube < h.cfg.NumDevs {
		if h.fault.FailLink(fault.LinkID{Dev: p.Cube, Link: p.Link}) {
			h.stats.LinkFailures++
		}
	}
	if h.sealed {
		h.routes = h.liveRoutes()
	}
}

// liveRoutes computes the routing tables the engine steers by. A custom
// router (WithRouter) supplies the pristine tables, and those stay live
// for as long as no link has failed — otherwise every forward would be
// miscounted as a reroute against the breadth-first baseline. Degraded
// operation always falls back to breadth-first routing over the
// surviving links, whatever the pristine discipline.
func (h *HMC) liveRoutes() *topo.Routes {
	if h.router != nil && !h.anyLinkFailed() {
		return h.routesPristine
	}
	return h.topo.RoutesAvoiding(h.linkFailed)
}

// anyLinkFailed reports whether any link endpoint is permanently down.
func (h *HMC) anyLinkFailed() bool {
	for dev := 0; dev < h.cfg.NumDevs; dev++ {
		for l := 0; l < h.cfg.NumLinks; l++ {
			if h.linkFailed(dev, l) {
				return true
			}
		}
	}
	return false
}

func (h *HMC) emit(e trace.Event) {
	if e.Kind&h.mask != 0 {
		e.Clock = h.clk
		h.tracer.Trace(e)
	}
}

// ConnectHost configures a device link as a host link.
func (h *HMC) ConnectHost(dev, link int) error {
	if h.sealed {
		return ErrSealed
	}
	return h.topo.ConnectHost(dev, link)
}

// ConnectDevices configures a pass-through link between two devices
// (chaining). Devices that link to one another must exist within the same
// HMC object; loopbacks are prohibited.
func (h *HMC) ConnectDevices(devA, linkA, devB, linkB int) error {
	if h.sealed {
		return ErrSealed
	}
	return h.topo.ConnectDevices(devA, linkA, devB, linkB)
}

// UseTopology replaces the object's topology with a prebuilt one (for
// example topo.Ring or topo.Torus). The topology's device count, link
// count and host ID must match the configuration.
func (h *HMC) UseTopology(t *topo.Topology) error {
	if h.sealed {
		return ErrSealed
	}
	if t.NumDevs() != h.cfg.NumDevs || t.NumLinks() != h.cfg.NumLinks || t.HostID() != h.HostID() {
		return fmt.Errorf("hmcsim: topology shape %d devs/%d links/host %d does not match config %d/%d/%d",
			t.NumDevs(), t.NumLinks(), t.HostID(), h.cfg.NumDevs, h.cfg.NumLinks, h.HostID())
	}
	h.topo = t
	return nil
}

// seal validates the topology, computes routes and device processing
// order, and mirrors the wiring into the device link structures. It runs
// once, on the first Send or Clock.
func (h *HMC) seal() error {
	if h.sealed {
		return nil
	}
	if err := h.topo.Validate(); err != nil {
		return err
	}
	if h.router != nil {
		r, err := h.router(h.topo)
		if err != nil {
			return err
		}
		h.routesPristine = r
	} else {
		h.routesPristine = h.topo.Routes()
	}
	// Apply the statically failed links of the fault configuration, now
	// that the wiring is known, then compute the (possibly degraded)
	// live routing tables.
	h.sealed = true // failLink recomputes routes only once sealed
	for _, l := range h.fault.StaticFailedLinks() {
		h.failLink(l.Dev, l.Link)
	}
	h.timedFaults = h.fault.TimedFailures()
	h.timedIdx = 0
	h.routes = h.liveRoutes()
	h.rootOrder = h.rootOrder[:0]
	h.childOrder = h.childOrder[:0]
	for cube := 0; cube < h.cfg.NumDevs; cube++ {
		if h.topo.IsRoot(cube) {
			h.rootOrder = append(h.rootOrder, cube)
		} else {
			h.childOrder = append(h.childOrder, cube)
		}
		d := h.devs[cube]
		for l := range d.Links {
			p := h.topo.Peer(cube, l)
			d.Links[l].DstCube = p.Cube
			d.Links[l].DstLink = p.Link
			d.Links[l].Active = p.Cube != topo.Unconnected
		}
	}
	return nil
}

// Free returns all devices to their initial reset state and reopens the
// topology for reconfiguration. It is the analogue of hmcsim_free.
func (h *HMC) Free() {
	for _, d := range h.devs {
		d.Reset()
	}
	t, _ := topo.New(h.cfg.NumDevs, h.cfg.NumLinks, h.HostID())
	h.topo = t
	h.routes = nil
	h.routesPristine = nil
	h.sealed = false
	h.clk = 0
	h.stats = Stats{}
	h.skip = SkipStats{}
	h.timedFaults = nil
	h.timedIdx = 0
	clear(h.cubeStats)
	h.fault.Reset()
	h.resetVaultFaults()
	for i := range h.retry {
		clear(h.retry[i])
	}
	clear(h.seq)
	h.pool.Reset()
}

// Occupancy is a snapshot of queued packets per queuing layer, with the
// corresponding slot capacities, for queue-depth tuning studies.
type Occupancy struct {
	XbarRqst, XbarRsp   int // packets in crossbar queues (all devices)
	VaultRqst, VaultRsp int // packets in vault queues (all devices)
	XbarSlots           int // total crossbar slots per direction
	VaultSlots          int // total vault slots per direction
}

// Occupancy returns the current queue census.
func (h *HMC) Occupancy() Occupancy {
	var o Occupancy
	for _, d := range h.devs {
		for i := range d.Links {
			o.XbarRqst += d.Links[i].RqstQ.Len()
			o.XbarRsp += d.Links[i].RspQ.Len()
			o.XbarSlots += d.Links[i].RqstQ.Depth()
		}
		for i := range d.Vaults {
			o.VaultRqst += d.Vaults[i].RqstQ.Len()
			o.VaultRsp += d.Vaults[i].RspQ.Len()
			o.VaultSlots += d.Vaults[i].RqstQ.Depth()
		}
	}
	return o
}

// Quiescent reports whether every queue in every device is empty: no
// request or response is in flight anywhere in the simulated network,
// and no link controller holds a transfer awaiting retransmission.
func (h *HMC) Quiescent() bool {
	for _, rl := range h.retry {
		for i := range rl {
			if rl[i].pending {
				return false
			}
		}
	}
	for _, d := range h.devs {
		for i := range d.Links {
			if d.Links[i].RqstQ.Len() > 0 || d.Links[i].RspQ.Len() > 0 {
				return false
			}
		}
		for i := range d.Vaults {
			if d.Vaults[i].RqstQ.Len() > 0 || d.Vaults[i].RspQ.Len() > 0 {
				return false
			}
		}
	}
	return true
}

// JTAGRead reads a device register through the side-band JTAG / I2C
// interface. The access exists outside the simulation clock domains: it
// does not consume memory bandwidth and completes immediately.
func (h *HMC) JTAGRead(dev int, phys uint64) (uint64, error) {
	d := h.Device(dev)
	if d == nil {
		return 0, fmt.Errorf("%w: device %d", ErrRange, dev)
	}
	return d.Regs.Read(phys)
}

// JTAGWrite writes a device register through the side-band JTAG / I2C
// interface, honoring the register class.
func (h *HMC) JTAGWrite(dev int, phys uint64, v uint64) error {
	d := h.Device(dev)
	if d == nil {
		return fmt.Errorf("%w: device %d", ErrRange, dev)
	}
	return d.Regs.Write(phys, v)
}
