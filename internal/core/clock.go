package core

import (
	"hmcsim/internal/device"
	"hmcsim/internal/packet"
	"hmcsim/internal/queue"
	"hmcsim/internal/trace"
)

// Clock progresses the internal memory operations and device clock by a
// single leading and trailing clock edge — one clock cycle. Without calls
// to Clock, external memory operations may progress until appropriate
// stall signals are recognized, but internal device operations will not
// progress.
//
// The internal clock cycle handlers execute in a very explicit order
// promoting reasonable accuracy of internal operations based upon priority
// and relative latency (the paper's Figure 3). Request and response
// packets progress by at most a single internal stage per sub-cycle
// operation; it is not possible for an individual packet to progress from
// the device crossbar interface directly to a memory bank within a single
// sub-cycle operation. The six sub-cycle stages are:
//
//  1. Process child device link crossbar transactions.
//  2. Process root device link crossbar request transactions.
//  3. Recognize bank conflicts on vault request queues.
//  4. Process vault queue memory request transactions.
//  5. Register response packets with crossbar response queues, root
//     devices first, then attached child devices.
//  6. Update the internal clock value.
func (h *HMC) Clock() error {
	if err := h.seal(); err != nil {
		return err
	}
	if h.timedIdx < len(h.timedFaults) {
		// Scheduled link failures apply before the stages (and before
		// the idle fast path: a failure during dead time still fires on
		// its exact cycle).
		h.applyTimedFaults()
	}
	if h.idle() {
		// Idle fast path: with no packet queued anywhere and no retry
		// buffer occupied, every sub-cycle stage is a no-op. Only the
		// register file edge (RWS self-clear) and the clock advance are
		// observable.
		for _, d := range h.devs {
			d.Regs.Tick()
		}
		h.clk++
		return nil
	}
	h.clearCycleFlags()

	// Stage 0: link-controller retry buffers replay transfers corrupted
	// by transient faults (the HMC 1.0 retry-pointer protocol), one
	// retransmission attempt per cycle.
	h.linkRetryStage()

	// Stage 1: child device crossbar transactions. These are devices not
	// connected directly to a host.
	for _, cube := range h.childOrder {
		h.xbarRequestStage(cube)
	}

	// Stage 2: root device crossbar request transactions.
	for _, cube := range h.rootOrder {
		h.xbarRequestStage(cube)
	}

	// Stages 3 and 4: bank conflict recognition, then vault queue memory
	// request transactions, each a serial pass over every (device, vault)
	// in device-major order (see vault.go and DESIGN.md §10).
	h.vaultStages()

	// Stage 5: response registration, root devices first so their queues
	// drain before child devices deliver into them.
	for _, cube := range h.rootOrder {
		h.responseStage(cube)
	}
	for _, cube := range h.childOrder {
		h.responseStage(cube)
	}

	// Stage 6: update the 64-bit internal clock value. All trace messages
	// reported by the earlier stages are registered within the current
	// clock domain; RWS registers written during the cycle self-clear.
	for _, d := range h.devs {
		d.Regs.Tick()
	}
	h.clk++
	return nil
}

// ClockN runs n clock cycles. After each walked cycle it consults the
// idle-skip wheel (AdvanceIdle): when no queued packet can make
// progress, the remaining provably inert cycles are applied as a bulk
// clock advance — dead time between bursts is O(1) instead of
// O(cycles), and link-latency dwell windows collapse to one walked
// cycle per wakeup. The walk resumes the moment work is pending, so
// digests and trace streams are bit-identical to a cycle-by-cycle run.
func (h *HMC) ClockN(n int) error {
	for done := 0; done < n; {
		if err := h.Clock(); err != nil {
			return err
		}
		done++
		if done < n {
			done += int(h.AdvanceIdle(h.clk + uint64(n-done)))
		}
	}
	return nil
}

// idle reports whether the next clock edge can take the bulk fast path:
// no packet queued anywhere and no retry buffer occupied. The pool's
// in-use count is the O(1) busy gate; the full queue walk only runs when
// the gate believes the simulation is empty (externally built packets
// pushed straight into device queues by tests bypass the pool, so the
// walk is the authority).
func (h *HMC) idle() bool {
	return h.pool.InUse() <= 0 && h.Quiescent()
}

// regsClean reports whether no device holds an RWS register write
// awaiting its self-clearing edge.
func (h *HMC) regsClean() bool {
	for _, d := range h.devs {
		if !d.Regs.Clean() {
			return false
		}
	}
	return true
}

func (h *HMC) clearCycleFlags() {
	for _, d := range h.devs {
		for i := range d.Links {
			d.Links[i].RqstQ.ClearCycleFlags()
			d.Links[i].RspQ.ClearCycleFlags()
		}
		for i := range d.Vaults {
			d.Vaults[i].RqstQ.ClearCycleFlags()
			d.Vaults[i].RspQ.ClearCycleFlags()
		}
	}
}

// pushMoved enqueues p and marks the new slot as already progressed this
// cycle.
func pushMoved(q *queue.Queue, p *packet.Packet, clk uint64) error {
	if err := q.Push(p, clk); err != nil {
		return err
	}
	q.At(q.Len() - 1).Moved = true
	return nil
}

// linkRetryStage replays the transfers held in the link-controller
// retry buffers. A clean replay delivers the packet into the link's
// crossbar request queue; a replay corrupted by another transient fault
// consumes one attempt of the bounded budget; an exhausted budget (or a
// permanent failure of the link mid-retry) abandons the transfer and
// surfaces an ERROR response to the host.
func (h *HMC) linkRetryStage() {
	for dev := range h.retry {
		d := h.devs[dev]
		for li := range h.retry[dev] {
			rs := &h.retry[dev][li]
			if !rs.pending {
				continue
			}
			p := rs.packet
			if rs.attempts > h.fault.MaxRetries() || h.linkFailed(dev, li) {
				h.retryGiveUp(d, li, rs)
				continue
			}
			if h.faultTransient(p) {
				rs.attempts++
				h.stats.LinkRetransmits++
				if h.mask&trace.KindRetry != 0 {
					h.emit(trace.Event{
						Kind: trace.KindRetry, Dev: dev, Link: li,
						Quad: d.Links[li].Quad, Vault: trace.None, Bank: trace.None,
						Addr: p.Addr(), Tag: p.Tag(), Cmd: p.Cmd().String(),
						Aux: uint64(rs.attempts),
					})
				}
				if rs.attempts > h.fault.MaxRetries() {
					h.retryGiveUp(d, li, rs)
				}
				continue
			}
			l := &d.Links[li]
			if l.RqstQ.Full() {
				h.stats.XbarRqstStalls++
				continue
			}
			if err := pushMoved(l.RqstQ, p, h.clk); err == nil {
				*rs = retryState{}
			}
		}
	}
}

// retryGiveUp abandons a transfer whose retry budget is exhausted or
// whose link died mid-retry. Posted requests vanish silently, per the
// specification; all other requests surface an ERROR response so the
// host can correlate the failure by tag. The buffer stays occupied
// until the response is handed off.
func (h *HMC) retryGiveUp(d *device.Device, li int, rs *retryState) {
	p := rs.packet
	if p.Cmd().IsPosted() {
		h.stats.Errors++
		if h.mask&trace.KindError != 0 {
			h.emit(trace.Event{
				Kind: trace.KindError, Dev: d.ID, Link: li, Quad: d.Links[li].Quad,
				Vault: trace.None, Bank: trace.None, Addr: p.Addr(), Tag: p.Tag(),
				Cmd: p.Cmd().String(), Aux: uint64(packet.ErrStatLinkCRC),
			})
		}
		*rs = retryState{}
		h.pool.Put(p)
		return
	}
	// The egress choice depends only on the source link ID, which the
	// in-place error conversion below preserves.
	out, rerouted := li, false
	if h.linkFailed(d.ID, li) {
		out, rerouted = h.responseEgress(d.ID, p)
		if out < 0 {
			// No surviving path back to any host: the response is lost.
			h.stats.Errors++
			*rs = retryState{}
			h.pool.Put(p)
			return
		}
	}
	q := d.Links[out].RspQ
	if q.Full() {
		h.stats.XbarRspStalls++
		return // hold the buffer (request intact); retried next cycle
	}
	// Capture the request correlation fields, then rewrite its buffer into
	// the ERROR response and hand that same buffer to the response queue.
	addr, tag, reqCmd := p.Addr(), p.Tag(), p.Cmd()
	packet.ErrorResponseInto(p, p, uint8(d.ID), packet.ErrStatLinkCRC)
	_ = pushMoved(q, p, h.clk)
	*rs = retryState{}
	h.stats.Errors++
	h.stats.ErrorResponses++
	if h.mask&trace.KindError != 0 {
		h.emit(trace.Event{
			Kind: trace.KindError, Dev: d.ID, Link: li, Quad: d.Links[li].Quad,
			Vault: trace.None, Bank: trace.None, Addr: addr, Tag: tag,
			Cmd: reqCmd.String(), Aux: uint64(packet.ErrStatLinkCRC),
		})
	}
	if rerouted {
		h.stats.Reroutes++
		if h.mask&trace.KindReroute != 0 {
			h.emit(trace.Event{
				Kind: trace.KindReroute, Dev: d.ID, Link: out,
				Quad: trace.None, Vault: trace.None, Bank: trace.None,
				Tag: tag, Cmd: p.Cmd().String(), Aux: uint64(li),
			})
		}
	}
}

// xbarRequestStage walks each link's crossbar request queue in FIFO order
// and determines which vault or remote HMC device is the candidate
// destination for each packet, registering trace messages when packets are
// misrouted, stalled due to queue congestion, or subject to latency
// penalties from the physical locality of the queue versus the destination
// vault.
func (h *HMC) xbarRequestStage(cube int) {
	d := h.devs[cube]
	for li := range d.Links {
		l := &d.Links[li]
		if !l.Active {
			continue
		}
		q := l.RqstQ
		// blockedVaults tracks, in passing mode, the local vaults with an
		// older stalled packet: a younger packet may pass stalled elders
		// only when bound elsewhere, preserving per-(link, vault) stream
		// order. blockedRemote blocks all further remote forwards once a
		// remote forward stalls (a single egress path per destination).
		var blockedVaults uint64
		blockedRemote := false
		i := 0
		for i < q.Len() {
			s := q.At(i)
			if s.Moved {
				i++
				continue
			}
			p := s.Packet
			dest := int(p.CUB())
			if h.cfg.XbarPassing {
				if dest == cube && !p.Cmd().IsMode() &&
					p.Addr() < uint64(1)<<uint(d.Map.AddrBits()) {
					v := d.Map.Decode(p.Addr()).Vault
					if blockedVaults&(uint64(1)<<uint(v)) != 0 {
						i++
						continue
					}
					if outcome := h.deliverLocal(d, li, i); outcome == outcomeStall {
						blockedVaults |= uint64(1) << uint(v)
						i++
					}
					continue
				}
				if dest != cube {
					if blockedRemote {
						i++
						continue
					}
					if outcome := h.forwardRemote(d, li, i, dest); outcome == outcomeStall {
						blockedRemote = true
						i++
					}
					continue
				}
				// Mode requests and address faults keep strict order.
				if outcome := h.deliverLocal(d, li, i); outcome == outcomeStall {
					i = q.Len()
				}
				continue
			}
			var outcome stageOutcome
			if dest == cube {
				outcome = h.deliverLocal(d, li, i)
			} else {
				outcome = h.forwardRemote(d, li, i, dest)
			}
			switch outcome {
			case outcomeStall:
				// Head-of-line blocking: a stalled packet blocks the
				// packets behind it for this stage.
				i = q.Len()
			case outcomeRemoved:
				// The slot at i was consumed; the next packet shifted
				// into position i.
			case outcomeSkip:
				i++
			}
		}
	}
}

type stageOutcome int

const (
	outcomeRemoved stageOutcome = iota
	outcomeStall
	outcomeSkip
)

// deliverLocal handles a request whose destination cube is this device:
// mode requests access the register file at the logic base; memory
// requests move to the owning vault's request queue.
func (h *HMC) deliverLocal(d *device.Device, li, slot int) stageOutcome {
	l := &d.Links[li]
	q := l.RqstQ
	p := q.At(slot).Packet
	cmd := p.Cmd()

	// Mode requests are serviced by the logic base, not a vault.
	if cmd.IsMode() {
		return h.serviceMode(d, li, slot)
	}

	// Address range check against the configured capacity.
	if p.Addr() >= uint64(1)<<uint(d.Map.AddrBits()) {
		return h.errorAt(d, li, slot, packet.ErrStatAddr)
	}

	dec := d.Map.Decode(p.Addr())
	if h.fault.VaultFailed(d.ID, dec.Vault) {
		// The target vault is permanently failed: reject with an ERROR
		// response rather than servicing against dead storage.
		return h.errorAt(d, li, slot, packet.ErrStatVaultFail)
	}
	v := &d.Vaults[dec.Vault]
	if v.RqstQ.Full() {
		h.stats.XbarRqstStalls++
		if h.mask&trace.KindXbarRqstStall != 0 {
			h.emit(trace.Event{
				Kind: trace.KindXbarRqstStall, Dev: d.ID, Link: li, Quad: l.Quad,
				Vault: dec.Vault, Bank: dec.Bank, Addr: p.Addr(), Tag: p.Tag(),
				Cmd: cmd.String(), Aux: uint64(v.RqstQ.Len()),
			})
		}
		return outcomeStall
	}
	// A latency penalty is raised when the request was received on a link
	// that is not co-located with the destination quadrant and vault.
	if l.Quad != v.Quad {
		h.stats.LatencyEvents++
		if h.mask&trace.KindLatency != 0 {
			h.emit(trace.Event{
				Kind: trace.KindLatency, Dev: d.ID, Link: li, Quad: v.Quad,
				Vault: dec.Vault, Bank: dec.Bank, Addr: p.Addr(), Tag: p.Tag(),
				Cmd: cmd.String(), Aux: uint64(l.Quad),
			})
		}
	}
	if err := pushMoved(v.RqstQ, p, h.clk); err != nil {
		return outcomeStall
	}
	cs := &h.cubeStats[d.ID]
	cs.Delivered++
	switch {
	case cmd.IsRead():
		cs.Reads++
	case cmd.IsWrite():
		cs.Writes++
	case cmd.IsAtomic():
		cs.Atomics++
	}
	q.Remove(slot)
	return outcomeRemoved
}

// forwardRemote routes a request one hop toward a remote cube, generating
// an error response when the destination is invalid or unreachable.
func (h *HMC) forwardRemote(d *device.Device, li, slot int, dest int) stageOutcome {
	q := d.Links[li].RqstQ
	p := q.At(slot).Packet
	if dest < 0 || dest >= h.cfg.NumDevs {
		// The destination names the host or a nonexistent cube.
		return h.errorAt(d, li, slot, packet.ErrStatCube)
	}
	el, ok := h.routes.NextHop(d.ID, dest)
	if !ok {
		// Deliberately misconfigured topology: respond with an error
		// structure rather than failing the simulation.
		return h.errorAt(d, li, slot, packet.ErrStatTopology)
	}
	if lat := uint64(h.cfg.LinkLatency); lat > 1 && h.clk-q.At(slot).Arrived < lat {
		// Per-hop link latency: the packet dwells at its queue head
		// until the modeled flight time elapses. Arrival stamps are
		// non-decreasing along a FIFO, so stalling here never starves a
		// younger packet that could otherwise move.
		return outcomeStall
	}
	link := &d.Links[el]
	peer := h.devs[link.DstCube]
	if linkDown(d, el) || linkDown(peer, link.DstLink) {
		// The pass-through link is administratively down; traffic holds
		// in place until the LC bit clears.
		h.stats.XbarRqstStalls++
		return outcomeStall
	}
	pq := peer.Links[link.DstLink].RqstQ
	if pq.Full() {
		h.stats.XbarRqstStalls++
		if h.mask&trace.KindXbarRqstStall != 0 {
			h.emit(trace.Event{
				Kind: trace.KindXbarRqstStall, Dev: d.ID, Link: li, Quad: link.Quad,
				Vault: trace.None, Bank: trace.None, Addr: p.Addr(), Tag: p.Tag(),
				Cmd: p.Cmd().String(), Aux: uint64(pq.Len()),
			})
		}
		return outcomeStall
	}
	if h.fault.LinkFailure() {
		// The transfer trips a hard failure of the egress link. The
		// packet survives in its queue and is re-routed on a later
		// cycle through the recomputed degraded tables.
		h.failLink(d.ID, el)
		return outcomeStall
	}
	if h.faultTransient(p) {
		// CRC-corrupt transfer: the link controller replays it from its
		// retry buffer — one cycle of delay per attempt, bounded.
		s := q.At(slot)
		s.Retries++
		h.stats.LinkRetransmits++
		if h.mask&trace.KindRetry != 0 {
			h.emit(trace.Event{
				Kind: trace.KindRetry, Dev: d.ID, Link: el, Quad: trace.None,
				Vault: trace.None, Bank: trace.None, Addr: p.Addr(), Tag: p.Tag(),
				Cmd: p.Cmd().String(), Aux: uint64(s.Retries),
			})
		}
		if int(s.Retries) > h.fault.MaxRetries() {
			return h.errorAt(d, li, slot, packet.ErrStatLinkCRC)
		}
		return outcomeStall
	}
	if err := pushMoved(pq, p, h.clk); err != nil {
		return outcomeStall
	}
	peer.Links[link.DstLink].ReqFlits += uint64(p.Flits())
	h.stats.RouteHops++
	h.cubeStats[d.ID].ReqRelayed++
	if h.mask&trace.KindRoute != 0 {
		h.emit(trace.Event{
			Kind: trace.KindRoute, Dev: d.ID, Link: el, Quad: trace.None,
			Vault: trace.None, Bank: trace.None, Addr: p.Addr(), Tag: p.Tag(),
			Cmd: p.Cmd().String(), Aux: uint64(dest),
		})
	}
	if pl, ok := h.routesPristine.NextHop(d.ID, dest); ok && pl != el {
		// Degraded-mode routing chose a different hop than the pristine
		// fabric would: record the latency-penalty event.
		h.stats.Reroutes++
		if h.mask&trace.KindReroute != 0 {
			h.emit(trace.Event{
				Kind: trace.KindReroute, Dev: d.ID, Link: el, Quad: trace.None,
				Vault: trace.None, Bank: trace.None, Addr: p.Addr(), Tag: p.Tag(),
				Cmd: p.Cmd().String(), Aux: uint64(pl),
			})
		}
	}
	q.Remove(slot)
	return outcomeRemoved
}

// serviceMode executes a MODE_READ or MODE_WRITE request at the logic
// base. The physical register index travels in the request address field;
// MODE_WRITE data travels in the first payload word.
func (h *HMC) serviceMode(d *device.Device, li, slot int) stageOutcome {
	l := &d.Links[li]
	q := l.RqstQ
	p := q.At(slot).Packet
	if l.RspQ.Full() {
		h.stats.XbarRspStalls++
		if h.mask&trace.KindXbarRspStall != 0 {
			h.emit(trace.Event{
				Kind: trace.KindXbarRspStall, Dev: d.ID, Link: li, Quad: l.Quad,
				Vault: trace.None, Bank: trace.None, Addr: p.Addr(), Tag: p.Tag(),
				Cmd: p.Cmd().String(), Aux: uint64(l.RspQ.Len()),
			})
		}
		return outcomeStall
	}
	// Capture the correlation fields before the request buffer is rewritten
	// in place into its response.
	addr, tag, cmd := p.Addr(), p.Tag(), p.Cmd()
	slid, seq := p.SLID(), p.Seq()
	switch cmd {
	case packet.CmdMDRD:
		v, err := d.Regs.Read(addr)
		if err != nil {
			return h.errorAt(d, li, slot, packet.ErrStatRegister)
		}
		data := [2]uint64{v, 0}
		mustResponseInto(p, packet.Response{
			CUB: uint8(d.ID), Tag: tag, Cmd: packet.CmdMDRDRS,
			SLID: slid, Seq: seq, Data: data[:],
		})
	case packet.CmdMDWR:
		if err := d.Regs.Write(addr, p.Data()[0]); err != nil {
			return h.errorAt(d, li, slot, packet.ErrStatRegister)
		}
		mustResponseInto(p, packet.Response{
			CUB: uint8(d.ID), Tag: tag, Cmd: packet.CmdMDWRRS,
			SLID: slid, Seq: seq,
		})
	}
	h.stats.Modes++
	h.cubeStats[d.ID].Modes++
	if h.mask&trace.KindRqst != 0 {
		h.emit(trace.Event{
			Kind: trace.KindRqst, Dev: d.ID, Link: li, Quad: l.Quad,
			Vault: trace.None, Bank: trace.None, Addr: addr, Tag: tag,
			Cmd: cmd.String(),
		})
	}
	_ = pushMoved(l.RspQ, p, h.clk)
	q.Remove(slot)
	return outcomeRemoved
}

// errorAt replaces the request in the given crossbar slot with an error
// response on the same link, preserving correlation fields.
func (h *HMC) errorAt(d *device.Device, li, slot int, errStat uint8) stageOutcome {
	l := &d.Links[li]
	q := l.RqstQ
	p := q.At(slot).Packet
	if p.Cmd().IsPosted() {
		// Posted requests receive no responses, even on error — their tags
		// are recycled by the host the moment Send accepts them, so an
		// ERROR response would collide with a reused tag. The request is
		// dropped and the error recorded.
		h.stats.Errors++
		if h.mask&trace.KindError != 0 {
			h.emit(trace.Event{
				Kind: trace.KindError, Dev: d.ID, Link: li, Quad: l.Quad,
				Vault: trace.None, Bank: trace.None, Addr: p.Addr(), Tag: p.Tag(),
				Cmd: p.Cmd().String(), Aux: uint64(errStat),
			})
		}
		q.Remove(slot)
		h.pool.Put(p)
		return outcomeRemoved
	}
	if l.RspQ.Full() {
		h.stats.XbarRspStalls++
		return outcomeStall
	}
	// Rewrite the request buffer in place into the ERROR response; the
	// correlation fields are captured first for the trace event.
	addr, tag, reqCmd := p.Addr(), p.Tag(), p.Cmd()
	packet.ErrorResponseInto(p, p, uint8(d.ID), errStat)
	h.stats.Errors++
	h.stats.ErrorResponses++
	if h.mask&trace.KindError != 0 {
		h.emit(trace.Event{
			Kind: trace.KindError, Dev: d.ID, Link: li, Quad: l.Quad,
			Vault: trace.None, Bank: trace.None, Addr: addr, Tag: tag,
			Cmd: reqCmd.String(), Aux: uint64(errStat),
		})
	}
	_ = pushMoved(l.RspQ, p, h.clk)
	q.Remove(slot)
	return outcomeRemoved
}

func mustResponseInto(p *packet.Packet, r packet.Response) {
	if err := packet.BuildResponseInto(p, r); err != nil {
		panic("hmcsim: internal response build failed: " + err.Error())
	}
}

// refreshMask returns the banks of vault vi currently under refresh. Each
// bank refreshes once per RefreshInterval with a per-bank phase stagger,
// so at most a small fraction of the device refreshes at once.
func (h *HMC) refreshMask(d *device.Device, vi int) uint64 {
	ri := uint64(h.cfg.RefreshInterval)
	if ri == 0 {
		return 0
	}
	banks := h.cfg.NumBanks
	total := uint64(h.cfg.NumVaults * banks)
	var m uint64
	for b := 0; b < banks; b++ {
		phase := uint64(vi*banks+b) * ri / total
		if (h.clk+phase)%ri < uint64(h.cfg.RefreshDuration) {
			m |= uint64(1) << uint(b)
		}
	}
	return m
}

// responseStage routes response packets toward the host: first from vault
// response queues into the crossbar response queues of the appropriate
// egress link, then across pass-through links from this device toward its
// parent. Responses exit a root device on the link recorded in their
// source link identifier.
func (h *HMC) responseStage(cube int) {
	d := h.devs[cube]

	// Rescue pass: responses stranded on a permanently failed link migrate
	// to a surviving egress queue so no outstanding tag is ever lost.
	for li := range d.Links {
		if !d.Links[li].Active || !h.linkFailed(cube, li) {
			continue
		}
		q := d.Links[li].RspQ
		i := 0
		for i < q.Len() {
			s := q.At(i)
			if s.Moved {
				i++
				continue
			}
			p := s.Packet
			out, _ := h.responseEgress(cube, p)
			if out < 0 || out == li {
				// No surviving path back to any host.
				h.stats.Errors++
				q.Remove(i)
				h.pool.Put(p)
				continue
			}
			oq := d.Links[out].RspQ
			if oq.Full() {
				h.stats.XbarRspStalls++
				break
			}
			if err := pushMoved(oq, p, h.clk); err != nil {
				break
			}
			h.noteReroute(cube, out, p, uint64(li))
			q.Remove(i)
		}
	}

	// Vault response queues drain into crossbar response queues.
	for vi := range d.Vaults {
		v := &d.Vaults[vi]
		for v.RspQ.Len() > 0 {
			p := v.RspQ.Head().Packet
			out, rerouted := h.responseEgress(cube, p)
			if out < 0 {
				// Zombie response: no path back to any host. Drop it and
				// record the error.
				h.stats.Errors++
				if h.mask&trace.KindError != 0 {
					h.emit(trace.Event{
						Kind: trace.KindError, Dev: cube, Link: trace.None,
						Quad: v.Quad, Vault: vi, Bank: trace.None,
						Tag: p.Tag(), Cmd: p.Cmd().String(),
						Aux: uint64(packet.ErrStatTopology),
					})
				}
				v.RspQ.Pop()
				h.pool.Put(p)
				continue
			}
			lq := d.Links[out].RspQ
			if lq.Full() {
				h.stats.XbarRspStalls++
				if h.mask&trace.KindXbarRspStall != 0 {
					h.emit(trace.Event{
						Kind: trace.KindXbarRspStall, Dev: cube, Link: out,
						Quad: v.Quad, Vault: vi, Bank: trace.None,
						Tag: p.Tag(), Cmd: p.Cmd().String(), Aux: uint64(lq.Len()),
					})
				}
				break
			}
			if err := pushMoved(lq, p, h.clk); err != nil {
				break
			}
			h.cubeStats[cube].Responses++
			if rerouted {
				h.noteReroute(cube, out, p, uint64(p.SLID()))
			}
			v.RspQ.Pop()
		}
	}

	// Pass-through forwarding: responses waiting on links that face
	// another device cross to that device's egress queue, one hop per
	// cycle.
	for li := range d.Links {
		l := &d.Links[li]
		if !l.Active || l.DstCube < 0 || l.DstCube >= h.cfg.NumDevs {
			continue
		}
		if h.linkFailed(cube, li) || h.linkFailed(l.DstCube, l.DstLink) {
			// Stranded traffic is migrated by the rescue pass above.
			continue
		}
		if linkDown(d, li) || linkDown(h.devs[l.DstCube], l.DstLink) {
			continue
		}
		q := l.RspQ
		i := 0
		for i < q.Len() {
			s := q.At(i)
			if s.Moved {
				i++
				continue
			}
			p := s.Packet
			if lat := uint64(h.cfg.LinkLatency); lat > 1 && h.clk-s.Arrived < lat {
				// Per-hop link latency on the response path mirrors the
				// request-side dwell; FIFO arrival order makes the stall
				// safe for the whole queue.
				i = q.Len()
				continue
			}
			peer := l.DstCube
			out, rerouted := h.responseEgress(peer, p)
			if out < 0 {
				h.stats.Errors++
				q.Remove(i)
				h.pool.Put(p)
				continue
			}
			pq := h.devs[peer].Links[out].RspQ
			if pq.Full() {
				h.stats.XbarRspStalls++
				if h.mask&trace.KindXbarRspStall != 0 {
					h.emit(trace.Event{
						Kind: trace.KindXbarRspStall, Dev: cube, Link: li,
						Quad: trace.None, Vault: trace.None, Bank: trace.None,
						Tag: p.Tag(), Cmd: p.Cmd().String(), Aux: uint64(pq.Len()),
					})
				}
				i = q.Len()
				continue
			}
			if h.fault.LinkFailure() {
				// The transfer trips a hard failure of the pass-through
				// link; the rescue pass re-routes the queue next cycle.
				h.failLink(cube, li)
				i = q.Len()
				continue
			}
			if h.faultTransient(p) {
				// CRC-corrupt response transfer: replay from the retry
				// buffer, bounded. An exhausted budget converts the
				// response in place to an ERROR response (the payload is
				// unrecoverable, but the tag still reaches the host).
				s.Retries++
				h.stats.LinkRetransmits++
				if h.mask&trace.KindRetry != 0 {
					h.emit(trace.Event{
						Kind: trace.KindRetry, Dev: cube, Link: li, Quad: trace.None,
						Vault: trace.None, Bank: trace.None, Tag: p.Tag(),
						Cmd: p.Cmd().String(), Aux: uint64(s.Retries),
					})
				}
				if int(s.Retries) > h.fault.MaxRetries() {
					h.stats.Errors++
					h.stats.ErrorResponses++
					if h.mask&trace.KindError != 0 {
						h.emit(trace.Event{
							Kind: trace.KindError, Dev: cube, Link: li,
							Quad: trace.None, Vault: trace.None, Bank: trace.None,
							Tag: p.Tag(), Cmd: p.Cmd().String(),
							Aux: uint64(packet.ErrStatLinkCRC),
						})
					}
					packet.ErrorResponseInto(p, p, uint8(cube), packet.ErrStatLinkCRC)
					s.Retries = 0
				}
				i = q.Len()
				continue
			}
			if err := pushMoved(pq, p, h.clk); err != nil {
				i = q.Len()
				continue
			}
			l.RspFlits += uint64(p.Flits())
			h.cubeStats[cube].RspRelayed++
			if h.mask&trace.KindRoute != 0 {
				h.emit(trace.Event{
					Kind: trace.KindRoute, Dev: cube, Link: li, Quad: trace.None,
					Vault: trace.None, Bank: trace.None, Tag: p.Tag(),
					Cmd: p.Cmd().String(), Aux: uint64(peer),
				})
			}
			if rerouted {
				h.noteReroute(peer, out, p, uint64(p.SLID()))
			}
			q.Remove(i)
		}
	}
}

// noteReroute records one degraded-mode routing decision: a packet that a
// healthy fabric would have carried on link aux was forwarded on link out
// instead.
func (h *HMC) noteReroute(dev, out int, p *packet.Packet, aux uint64) {
	h.stats.Reroutes++
	if h.mask&trace.KindReroute != 0 {
		h.emit(trace.Event{
			Kind: trace.KindReroute, Dev: dev, Link: out, Quad: trace.None,
			Vault: trace.None, Bank: trace.None, Tag: p.Tag(),
			Cmd: p.Cmd().String(), Aux: aux,
		})
	}
}

// responseEgress selects the crossbar response queue a response should
// occupy at device cube: the stored source link for root devices, or the
// next hop toward the nearest host-connected device for children. When the
// preferred link is permanently failed, the response is re-routed to a
// surviving host link (the host correlates responses by tag and SLID, not
// by arrival port) or across the degraded fabric; rerouted reports such a
// deviation from the pristine route. out is negative when no surviving
// path to any host exists.
func (h *HMC) responseEgress(cube int, p *packet.Packet) (out int, rerouted bool) {
	d := h.devs[cube]
	if h.topo.IsRoot(cube) {
		slid := int(p.SLID())
		validSlid := slid >= 0 && slid < len(d.Links) &&
			d.Links[slid].Active && d.Links[slid].DstCube == h.HostID()
		if validSlid && !h.linkFailed(cube, slid) {
			return slid, false
		}
		for _, hl := range h.topo.HostLinks(cube) {
			if !h.linkFailed(cube, hl) {
				// rerouted only when the preferred return link failed; a
				// stale SLID falling back to the first host link is the
				// pristine behaviour.
				return hl, validSlid
			}
		}
	}
	if l, ok := h.routes.ToHost(cube); ok {
		pl, pok := h.routesPristine.ToHost(cube)
		return l, !pok || pl != l
	}
	return -1, false
}
