package core

import (
	"hmcsim/internal/device"
	"hmcsim/internal/packet"
	"hmcsim/internal/trace"
)

// vaultStages runs sub-cycle stages 3 and 4 — bank-conflict recognition,
// then vault request service — as two serial passes over the flattened
// (device, vault) space in device-major order. The conflict pass covers
// every vault before the vault pass begins, which fixes the trace order:
// all BANKCONFLICT events of the cycle precede its vault events.
func (h *HMC) vaultStages() {
	for _, d := range h.devs {
		for vi := range d.Vaults {
			h.conflictVault(d, vi)
		}
	}
	for _, d := range h.devs {
		for vi := range d.Vaults {
			h.vaultOne(d, vi)
		}
	}
}

// conflictVault recognizes potential bank conflicts on one vault by
// decoding the physical memory addresses present in the request packets
// and determining whether conflicting packets exist within a spatial
// window of the queue. The pass modifies no data representations; losers
// of bank arbitration are deferred for this cycle and a trace message
// records the physical locality and clock value of the conflict.
func (h *HMC) conflictVault(d *device.Device, vi int) {
	v := &d.Vaults[vi]
	q := v.RqstQ
	n := q.Len()
	if n == 0 {
		// Nothing queued: the refresh mask is observable only through
		// deferred packets, so the whole vault is skipped.
		return
	}
	if window := h.cfg.ConflictWindow; window > 0 && window < n {
		n = window
	}
	refreshing := h.refreshMask(d, vi)
	claimed := refreshing
	for i := 0; i < n; i++ {
		s := q.At(i)
		p := s.Packet
		bank := d.Map.Decode(p.Addr()).Bank
		bit := uint64(1) << uint(bank)
		if claimed&bit != 0 {
			s.Deferred = true
			if refreshing&bit != 0 {
				// The bank is unavailable while refreshing; the
				// request waits without counting as a conflict
				// between requests.
				h.stats.RefreshStalls++
				continue
			}
			h.stats.BankConflicts++
			if h.mask&trace.KindBankConflict != 0 {
				h.tracer.Trace(trace.Event{
					Clock: h.clk,
					Kind:  trace.KindBankConflict, Dev: d.ID, Link: trace.None,
					Quad: v.Quad, Vault: vi, Bank: bank,
					Addr: p.Addr(), Tag: p.Tag(), Cmd: p.Cmd().String(),
				})
			}
			continue
		}
		claimed |= bit
	}
}

// vaultOne traverses one vault request queue in FIFO order and processes
// every request packet that survived bank-conflict arbitration: write
// packets, read packets and atomic (read-modify-write) packets. All
// packets are processed in equivalent and constant time as long as their
// bank addressing does not conflict. Responses are registered in the
// vault response queue.
func (h *HMC) vaultOne(d *device.Device, vi int) {
	v := &d.Vaults[vi]
	q := v.RqstQ
	n := q.Len()
	if window := h.cfg.ConflictWindow; window > 0 && window < n {
		n = window
	}
	i := 0
	for i < n {
		s := q.At(i)
		if s.Deferred {
			i++
			continue
		}
		p := s.Packet
		cmd := p.Cmd()
		if !cmd.IsPosted() && v.RspQ.Full() {
			// Preserve response ordering: a full response queue
			// blocks the vault for the rest of the cycle.
			h.stats.VaultRspStalls++
			if h.mask&trace.KindVaultRspStall != 0 {
				h.tracer.Trace(trace.Event{
					Clock: h.clk,
					Kind:  trace.KindVaultRspStall, Dev: d.ID, Link: trace.None,
					Quad: v.Quad, Vault: vi, Bank: trace.None,
					Addr: p.Addr(), Tag: p.Tag(), Cmd: cmd.String(),
					Aux: uint64(v.RspQ.Len()),
				})
			}
			break
		}
		moved := h.serviceVaultRequest(d, v, vi, p)
		q.Remove(i)
		if !moved {
			// Posted request (or the buffer was otherwise consumed): the
			// packet leaves the simulation here.
			h.pool.Put(p)
		}
		n--
	}
}

// serviceVaultRequest performs the memory operation for one request and
// registers the response, if any, in the vault response queue. The
// response is built in place into the request's own buffer; the return
// value reports whether that buffer moved into the vault response queue
// (false for posted requests, whose buffer the caller retires).
func (h *HMC) serviceVaultRequest(d *device.Device, v *device.Vault, vi int, p *packet.Packet) bool {
	addr, tag := p.Addr(), p.Tag()
	slid, seq := p.SLID(), p.Seq()
	dec := d.Map.Decode(addr)
	bank := &v.Banks[dec.Bank]
	cmd := p.Cmd()

	var rspCmd packet.Command
	var rspData []uint64
	errStat := packet.ErrStatOK

	// Bank I/O is performed in 32-byte column fetches regardless of the
	// request size.
	if bytes := cmd.DataBytes() + cmd.ResponseDataBytes(); bytes > 0 {
		h.stats.ColumnFetches += uint64((bytes + 31) / 32)
	}

	switch {
	case cmd.IsRead():
		n := cmd.ResponseDataBytes() / 8
		buf := h.rdbuf[:n]
		bank.Read(dec.DRAM, buf)
		rspCmd, rspData = packet.CmdRDRS, buf
		h.stats.Reads++
		h.stats.BytesRead += uint64(cmd.ResponseDataBytes())
		if h.vaultFaults[d.ID][vi].Fault() {
			// Poisoned read: the vault detected uncorrectable data. The
			// read response still carries the payload but flags it invalid
			// (DINV) with a poison error status.
			errStat = packet.ErrStatPoison
			h.stats.PoisonedReads++
			h.stats.Errors++
			if h.mask&trace.KindError != 0 {
				h.tracer.Trace(trace.Event{
					Clock: h.clk,
					Kind:  trace.KindError, Dev: d.ID, Link: trace.None,
					Quad: v.Quad, Vault: vi, Bank: dec.Bank,
					Addr: addr, Tag: tag, Cmd: cmd.String(),
					Aux: uint64(packet.ErrStatPoison),
				})
			}
		}
	case cmd.IsWrite():
		bank.Write(dec.DRAM, p.Data())
		rspCmd = packet.CmdWRRS
		h.stats.Writes++
		h.stats.BytesWritten += uint64(len(p.Data()) * 8)
	case cmd.IsAtomic():
		data := p.Data()
		switch cmd {
		case packet.Cmd2ADD8, packet.CmdP2ADD8:
			bank.Add8Dual(dec.DRAM, [2]uint64{data[0], data[1]})
		case packet.CmdADD16, packet.CmdPADD16:
			bank.Add16(dec.DRAM, [2]uint64{data[0], data[1]})
		case packet.CmdBWR, packet.CmdPBWR:
			bank.BitWrite(dec.DRAM, data[0], data[1])
		}
		rspCmd = packet.CmdWRRS
		h.stats.Atomics++
		h.stats.BytesRead += 16 // read-modify-write touches one block
		h.stats.BytesWritten += 16
	default:
		// A command the vault cannot process (for example a misdirected
		// mode request): generate an error response.
		rspCmd, errStat = packet.CmdError, packet.ErrStatCmd
		h.stats.Errors++
		h.stats.ErrorResponses++
	}

	if h.mask&trace.KindRqst != 0 {
		// Aux carries the source link ID so offline analyzers can match
		// this service event to its SEND event.
		h.tracer.Trace(trace.Event{
			Clock: h.clk,
			Kind:  trace.KindRqst, Dev: d.ID, Link: trace.None, Quad: v.Quad,
			Vault: vi, Bank: dec.Bank, Addr: addr, Tag: tag,
			Cmd: cmd.String(), Aux: uint64(slid),
		})
	}

	if cmd.IsPosted() && errStat == packet.ErrStatOK {
		h.stats.Posted++
		return false
	}

	// The response overwrites the request's buffer: every field it needs
	// was captured above, and read payloads stage through h.rdbuf, which
	// never aliases packet storage.
	mustResponseInto(p, packet.Response{
		CUB: uint8(d.ID), Tag: tag, Cmd: rspCmd,
		SLID: slid, Seq: seq, ErrStat: errStat,
		DInv: errStat != packet.ErrStatOK, Data: rspData,
	})
	// Space was checked by the caller; a failure here is an engine bug.
	if err := v.RspQ.Push(p, h.clk); err != nil {
		panic("hmcsim: vault response queue overflow")
	}
	h.stats.Responses++
	if h.mask&trace.KindRsp != 0 {
		h.tracer.Trace(trace.Event{
			Clock: h.clk,
			Kind:  trace.KindRsp, Dev: d.ID, Link: trace.None, Quad: v.Quad,
			Vault: vi, Bank: dec.Bank, Addr: addr, Tag: tag,
			Cmd: rspCmd.String(),
		})
	}
	return true
}
