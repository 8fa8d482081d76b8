// Package fault implements the HMC-Sim fault model: a deterministic,
// seedable engine that injects three classes of faults into a simulated
// HMC fabric, replacing the flat link-fault knob of earlier revisions.
//
//   - Transient link faults model CRC-corrupted FLITs on a SERDES lane.
//     The receiving link controller discards the corrupt transfer and the
//     transmitting controller replays it from its retry buffer (the HMC
//     1.0 retry-pointer protocol), transparently to the host, up to a
//     bounded number of attempts. Exhausting the attempts poisons the
//     transfer into an ERROR response.
//   - Permanent link failures model a hard SERDES or connector failure.
//     A failed link carries no further traffic; routing re-computes
//     around it (degraded mode) and traffic queued on it is re-routed
//     through surviving links.
//   - Vault faults model stacked-DRAM bit failures: reads serviced by a
//     faulty vault return poisoned data (DINV with a poison status).
//     Statically failed vaults reject every request with an ERROR
//     response.
//
// All randomness flows from a single splitmix64 stream seeded by
// Config.Seed, so a fixed seed reproduces a bit-identical fault schedule
// — the property the fault-campaign driver relies on.
package fault

import (
	"fmt"
	"sort"
)

// DefaultMaxRetries is the bounded retransmission budget per transfer
// when Config.MaxRetries is zero.
const DefaultMaxRetries = 8

// maxRetryBound caps the configurable retry budget; per-hop retry
// counters are stored in a byte.
const maxRetryBound = 200

// ppmRange is the exclusive upper bound of all fault rates: rates are
// expressed in parts per million of transfers (or vault reads).
const ppmRange = 1000000

// LinkID names one end of a device link.
type LinkID struct {
	Dev, Link int
}

// String renders the endpoint as dev:link.
func (l LinkID) String() string { return fmt.Sprintf("%d:%d", l.Dev, l.Link) }

// VaultID names a vault within a device.
type VaultID struct {
	Dev, Vault int
}

// String renders the vault as dev:vault.
func (v VaultID) String() string { return fmt.Sprintf("%d:%d", v.Dev, v.Vault) }

// TimedLinkFailure schedules a permanent failure of one link endpoint at
// an absolute clock cycle: the link carries traffic normally before
// Cycle and is hard-failed from Cycle onward, exactly as if
// Engine.LinkFailure had fired on a transfer that cycle. The schedule is
// part of the configuration (not the random stream), so it is
// bit-reproducible by construction and the idle-skip wheel can treat
// each entry as a wakeup event.
type TimedLinkFailure struct {
	// Cycle is the absolute clock cycle at which the failure applies.
	Cycle uint64
	// Dev and Link name the failing endpoint, as in LinkID.
	Dev, Link int
}

// String renders the event as dev:link@cycle.
func (t TimedLinkFailure) String() string {
	return fmt.Sprintf("%d:%d@%d", t.Dev, t.Link, t.Cycle)
}

// Config carries the per-component fault rates and the static failure
// sets. The zero value disables every fault class.
type Config struct {
	// TransientPPM is the transient link-fault rate: each packet
	// transfer across a SERDES link (host send, request forward,
	// response forward, retransmission) is CRC-corrupted with this
	// probability in parts per million.
	TransientPPM int
	// LinkFailPPM is the permanent link-failure rate: each transfer
	// attempt trips a hard failure of the carrying link with this
	// probability in parts per million. A failed link stays failed for
	// the remainder of the run.
	LinkFailPPM int
	// VaultPPM is the vault-fault rate: each read serviced by a vault
	// returns poisoned data with this probability in parts per million.
	// Draws come from the per-vault streams (Engine.VaultStream), not
	// the engine's shared stream.
	VaultPPM int
	// Seed seeds the deterministic fault stream. Two runs with equal
	// configuration and seed observe an identical fault schedule.
	Seed uint64
	// MaxRetries bounds the transparent link-level retransmissions per
	// transfer; a transfer that faults more than MaxRetries times in a
	// row is abandoned and surfaces as an ERROR response. Zero selects
	// DefaultMaxRetries.
	MaxRetries int
	// FailedLinks lists links that are permanently failed from reset —
	// the degraded-mode campaign input. Both endpoints of a chained
	// link are considered failed.
	FailedLinks []LinkID
	// FailedVaults lists vaults that are failed from reset: every
	// request targeting them elicits an ERROR response.
	FailedVaults []VaultID
	// FailAt schedules permanent link failures at absolute clock
	// cycles — the deterministic, cycle-triggered variant of
	// FailedLinks. The json tag keeps pre-existing wire payloads
	// byte-identical when the schedule is empty.
	FailAt []TimedLinkFailure `json:",omitempty"`
}

// Enabled reports whether any fault class can fire.
func (c Config) Enabled() bool {
	return c.TransientPPM > 0 || c.LinkFailPPM > 0 || c.VaultPPM > 0 ||
		len(c.FailedLinks) > 0 || len(c.FailedVaults) > 0 || len(c.FailAt) > 0
}

// Validate checks the rates and the retry budget. Static failure sets
// are range-checked by the simulation core against its topology shape.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		ppm  int
	}{
		{"transient link", c.TransientPPM},
		{"permanent link", c.LinkFailPPM},
		{"vault", c.VaultPPM},
	} {
		if r.ppm < 0 || r.ppm >= ppmRange {
			return fmt.Errorf("fault: %s fault rate %d PPM out of [0, %d)", r.name, r.ppm, ppmRange)
		}
	}
	if c.MaxRetries < 0 || c.MaxRetries > maxRetryBound {
		return fmt.Errorf("fault: retry budget %d out of [0, %d]", c.MaxRetries, maxRetryBound)
	}
	for _, t := range c.FailAt {
		if t.Dev < 0 || t.Link < 0 {
			return fmt.Errorf("fault: timed link failure %v has a negative endpoint", t)
		}
	}
	return nil
}

// Engine is the deterministic fault generator plus the failure state it
// has accumulated. It is not safe for concurrent use; each simulation
// object owns one engine.
type Engine struct {
	cfg   Config
	state uint64

	failedLinks  map[LinkID]bool
	failedVaults map[VaultID]bool

	// timed is cfg.FailAt sorted by (Cycle, Dev, Link): the canonical
	// application order the simulation core walks, and the event list
	// the idle-skip wheel consults through NextEventCycle.
	timed []TimedLinkFailure
}

// NewEngine returns an engine for cfg. Statically failed vaults are
// marked immediately; statically failed links are applied by the
// simulation core when the topology seals, so it can mirror the failure
// into its routing tables and counters.
func NewEngine(cfg Config) *Engine {
	e := &Engine{cfg: cfg}
	e.Reset()
	return e
}

// Reset restores the engine to its post-construction state: the stream
// rewinds to the seed and dynamically accumulated failures clear.
func (e *Engine) Reset() {
	e.state = e.cfg.Seed
	e.failedLinks = make(map[LinkID]bool, len(e.cfg.FailedLinks))
	e.failedVaults = make(map[VaultID]bool, len(e.cfg.FailedVaults))
	for _, v := range e.cfg.FailedVaults {
		e.failedVaults[v] = true
	}
	e.timed = append(e.timed[:0], e.cfg.FailAt...)
	sort.SliceStable(e.timed, func(i, j int) bool {
		a, b := e.timed[i], e.timed[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Dev != b.Dev {
			return a.Dev < b.Dev
		}
		return a.Link < b.Link
	})
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// MaxRetries returns the effective bounded retransmission budget.
func (e *Engine) MaxRetries() int {
	if e.cfg.MaxRetries == 0 {
		return DefaultMaxRetries
	}
	return e.cfg.MaxRetries
}

// StaticFailedLinks returns the configured from-reset link failures.
func (e *Engine) StaticFailedLinks() []LinkID { return e.cfg.FailedLinks }

// TimedFailures returns the scheduled link failures sorted by
// (cycle, dev, link) — the canonical application order. The returned
// slice is owned by the engine and must not be mutated.
func (e *Engine) TimedFailures() []TimedLinkFailure { return e.timed }

// NextEventCycle returns the cycle of the earliest scheduled failure at
// or after clk. The second result is false when no scheduled event
// remains.
func (e *Engine) NextEventCycle(clk uint64) (uint64, bool) {
	i := sort.Search(len(e.timed), func(i int) bool { return e.timed[i].Cycle >= clk })
	if i == len(e.timed) {
		return 0, false
	}
	return e.timed[i].Cycle, true
}

// splitRoll advances one splitmix64 state and reports whether an event
// with the given parts-per-million rate fires.
func splitRoll(state *uint64, ppm int) bool {
	if ppm <= 0 {
		return false
	}
	*state += 0x9E3779B97F4A7C15
	x := *state
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	x ^= x >> 31
	return x%ppmRange < uint64(ppm)
}

// splitMix finalizes one splitmix64 step over v, for seed derivation.
func splitMix(v uint64) uint64 {
	v += 0x9E3779B97F4A7C15
	v = (v ^ v>>30) * 0xBF58476D1CE4E5B9
	v = (v ^ v>>27) * 0x94D049BB133111EB
	return v ^ v>>31
}

// roll advances the engine's shared link stream.
func (e *Engine) roll(ppm int) bool { return splitRoll(&e.state, ppm) }

// Transient reports whether the next link transfer is CRC-corrupted.
func (e *Engine) Transient() bool { return e.roll(e.cfg.TransientPPM) }

// LinkFailure reports whether the next transfer attempt trips a
// permanent failure of its carrying link.
func (e *Engine) LinkFailure() bool { return e.roll(e.cfg.LinkFailPPM) }

// VaultStream is an independent deterministic fault stream for one
// vault. Splitting vault faults away from the engine's shared link
// stream makes the vault-fault schedule a pure function of (seed,
// device, vault, draw index): it does not depend on how draws from
// different vaults interleave. Methods on a given stream must not be
// called concurrently.
type VaultStream struct {
	state uint64
	ppm   int
}

// VaultStream derives the fault stream of vault (dev, vault). The
// per-vault seed mixes the engine seed with the vault coordinates
// through two splitmix64 finalizer steps, so neighbouring vaults get
// decorrelated streams even for small engine seeds.
func (e *Engine) VaultStream(dev, vault int) VaultStream {
	s := splitMix(e.cfg.Seed ^ (0xA5A5A5A55A5A5A5A + uint64(dev)))
	s = splitMix(s + uint64(vault))
	return VaultStream{state: s, ppm: e.cfg.VaultPPM}
}

// Fault advances the stream and reports whether the next read serviced
// by this vault returns poisoned data.
func (s *VaultStream) Fault() bool { return splitRoll(&s.state, s.ppm) }

// FailLink marks a link endpoint permanently failed. It reports whether
// the endpoint was newly failed.
func (e *Engine) FailLink(id LinkID) bool {
	if e.failedLinks[id] {
		return false
	}
	e.failedLinks[id] = true
	return true
}

// LinkFailed reports whether a link endpoint is permanently failed.
func (e *Engine) LinkFailed(dev, link int) bool {
	return e.failedLinks[LinkID{Dev: dev, Link: link}]
}

// FailedLinkCount returns the number of failed link endpoints.
func (e *Engine) FailedLinkCount() int { return len(e.failedLinks) }

// FailVault marks a vault permanently failed. It reports whether the
// vault was newly failed.
func (e *Engine) FailVault(id VaultID) bool {
	if e.failedVaults[id] {
		return false
	}
	e.failedVaults[id] = true
	return true
}

// VaultFailed reports whether a vault is failed.
func (e *Engine) VaultFailed(dev, vault int) bool {
	return e.failedVaults[VaultID{Dev: dev, Vault: vault}]
}
