package main

import (
	"errors"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/fabric/engine"
	"hmcsim/internal/packet"
	"hmcsim/internal/queue"
	"hmcsim/internal/workload"
)

// microBudget is how long each per-module measurement runs.
const microBudget = 150 * time.Millisecond

// Results of measured calls land in these package variables so the
// compiler cannot drop the calls.
var (
	sinkCRC  uint32
	sinkCube int
)

// timed repeats round until microBudget has passed and returns the mean
// time per operation; round returns how many operations it made.
func timed(round func() int) float64 {
	var ops int
	start := time.Now()
	for time.Since(start) < microBudget {
		ops += round()
	}
	return ratio(float64(time.Since(start)), float64(ops))
}

// timerCost is the mean measured length of an empty timed interval, in
// ns. Per-call timings of cheap calls subtract it, since each timed call
// also pays for one clock read.
func timerCost() float64 {
	var rounds []float64
	for r := 0; r < 5; r++ {
		var total time.Duration
		const n = 10000
		for i := 0; i < n; i++ {
			t0 := time.Now()
			total += time.Since(t0)
		}
		rounds = append(rounds, float64(total)/n)
	}
	return median(rounds)
}

// perCall is the mean time per call with the timer's own cost removed.
func perCall(busy time.Duration, calls int, timer float64) float64 {
	return max(0, ratio(float64(busy), float64(calls))-timer)
}

// shapes draws the workload's own request/response pairs: 64-byte reads
// and writes as its generator issues them.
func shapes(gen workload.Generator, n int) (reqs []packet.Request, rsps []packet.Response) {
	data := make([]uint64, 8)
	for i := 0; i < n; i++ {
		a := gen.Next()
		tag := uint16(i % (packet.MaxTag + 1))
		if a.Write {
			reqs = append(reqs, packet.Request{Addr: a.Addr, Tag: tag, Cmd: packet.CmdWR64, Data: data})
			rsps = append(rsps, packet.Response{Tag: tag, Cmd: packet.CmdWRRS})
		} else {
			reqs = append(reqs, packet.Request{Addr: a.Addr, Tag: tag, Cmd: packet.CmdRD64})
			rsps = append(rsps, packet.Response{Tag: tag, Cmd: packet.CmdRDRS, Data: data})
		}
	}
	return reqs, rsps
}

// packetBench times packet construction and the CRC over the workload's
// packet shapes, per packet.
func packetBench(gen workload.Generator) (crcNS, buildNS float64, err error) {
	reqs, rsps := shapes(gen, 512)
	var p packet.Packet
	var words [][]uint64
	for i := range reqs {
		if err := packet.BuildRequestInto(&p, reqs[i]); err != nil {
			return 0, 0, err
		}
		words = append(words, append([]uint64(nil), p.Words()...))
		if err := packet.BuildResponseInto(&p, rsps[i]); err != nil {
			return 0, 0, err
		}
		words = append(words, append([]uint64(nil), p.Words()...))
	}
	crcNS = timed(func() int {
		for _, w := range words {
			sinkCRC ^= packet.CRC(w)
		}
		return len(words)
	})
	buildNS = timed(func() int {
		for i := range reqs {
			_ = packet.BuildRequestInto(&p, reqs[i])
			_ = packet.BuildResponseInto(&p, rsps[i])
		}
		return 2 * len(reqs)
	})
	return crcNS, buildNS, nil
}

// queueBench times Push+Pop pairs on a half-full queue and mid-queue
// Removes draining a full one, averaged over the given depths.
func queueBench(depths ...int) (pushPopNS, removeNS float64, err error) {
	var pp, rm float64
	pkts := make([]packet.Packet, 2)
	for _, depth := range depths {
		q, err := queue.New(depth)
		if err != nil {
			return 0, 0, err
		}
		for q.Len() < depth/2 {
			_ = q.Push(&pkts[0], 0)
		}
		pp += timed(func() int {
			for i := 0; i < 4096; i++ {
				_ = q.Push(&pkts[1], uint64(i))
				q.Pop()
			}
			return 4096
		})
		q.Reset()
		var busy time.Duration
		var removed int
		start := time.Now()
		for time.Since(start) < microBudget {
			for q.Len() < depth {
				_ = q.Push(&pkts[0], 0)
			}
			t0 := time.Now()
			for q.Len() > 0 {
				q.Remove(q.Len() / 2)
			}
			busy += time.Since(t0)
			removed += depth
		}
		rm += ratio(float64(busy), float64(removed))
	}
	n := float64(len(depths))
	return pp / n, rm / n, nil
}

// port is a host attach point (device, link).
type port struct{ dev, link int }

func hostPorts(h *core.HMC) (inject, drain []port) {
	t := h.Topology()
	for _, l := range t.HostLinks(0) {
		inject = append(inject, port{0, l})
	}
	for _, root := range t.Roots() {
		for _, l := range t.HostLinks(root) {
			drain = append(drain, port{root, l})
		}
	}
	return inject, drain
}

// clockBench is the saturated clock loop through the public API: refill
// every injection link until Send stalls, clock once, drain every host
// port. It times Clock alone (refill and drain excluded), and each Send
// and RecvPacket on its own, less the timer's cost.
func clockBench(h *core.HMC, gen workload.Generator, route func(workload.Access) (int, uint64)) (clockNS, sendNS, recvNS float64, err error) {
	timer := timerCost()
	inject, drain := hostPorts(h)
	data := make([]uint64, 8)
	var clockT, sendT, recvT time.Duration
	var clocks, sends, recvs int
	for clockT < microBudget {
		for _, p := range inject {
			for {
				a := gen.Next()
				cube, addr := 0, a.Addr
				if route != nil {
					cube, addr = route(a)
				}
				req := packet.Request{CUB: uint8(cube), Addr: addr, Tag: uint16(p.link), Cmd: packet.CmdRD64}
				if a.Write {
					req.Cmd, req.Data = packet.CmdWR64, data
				}
				words, err := h.BuildRequestPacket(req, p.link)
				if err != nil {
					return 0, 0, 0, err
				}
				t0 := time.Now()
				serr := h.Send(p.dev, p.link, words)
				if serr != nil {
					if !errors.Is(serr, core.ErrStall) {
						return 0, 0, 0, serr
					}
					break
				}
				sendT += time.Since(t0)
				sends++
			}
		}
		t0 := time.Now()
		if err := h.Clock(); err != nil {
			return 0, 0, 0, err
		}
		clockT += time.Since(t0)
		clocks++
		for _, p := range drain {
			for {
				t0 := time.Now()
				if _, err := h.RecvPacket(p.dev, p.link); err != nil {
					break
				}
				recvT += time.Since(t0)
				recvs++
			}
		}
	}
	return perCall(clockT, clocks, timer), perCall(sendT, sends, timer), perCall(recvT, recvs, timer), nil
}

// advanceIdleBench paces one pointer-chase read every chaseGap cycles and
// times each AdvanceIdle call the dead cycles between them take.
func advanceIdleBench(cfg core.Config, gen workload.Generator) (float64, error) {
	h, err := eval.BuildSimple(cfg)
	if err != nil {
		return 0, err
	}
	timer := timerCost()
	inject, drain := hostPorts(h)
	var busy time.Duration
	var calls int
	var due uint64
	for k := 0; busy < microBudget; k++ {
		for h.Clk() < due {
			if err := h.Clock(); err != nil {
				return 0, err
			}
			for _, p := range drain {
				for {
					if _, err := h.RecvPacket(p.dev, p.link); err != nil {
						break
					}
				}
			}
			t0 := time.Now()
			h.AdvanceIdle(due)
			busy += time.Since(t0)
			calls++
		}
		a := gen.Next()
		p := inject[k%len(inject)]
		err := h.SendRequest(p.dev, p.link, packet.Request{Addr: a.Addr, Tag: uint16(k % 256), Cmd: packet.CmdRD64})
		if err != nil && !errors.Is(err, core.ErrStall) {
			return 0, err
		}
		due += chaseGap
	}
	return perCall(busy, calls, timer), nil
}

// routeBench times System.Route over the workload's access stream.
func routeBench(sys *engine.System, gen workload.Generator) float64 {
	as := make([]workload.Access, 4096)
	for i := range as {
		as[i] = gen.Next()
	}
	return timed(func() int {
		for _, a := range as {
			c, _ := sys.Route(a)
			sinkCube += c
		}
		return len(as)
	})
}

// engineModules runs the per-module measurements of an engine workload
// on its first input.
func engineModules(o options, input uint32, rep *report) error {
	cfg := core.Table1Configs()[0]
	spec := workload.TableISpec(input)
	if o.workload == "sparse_chase" {
		spec = workload.Spec{Kind: "chase", Seed: input, Size: 64}
	}
	newGen := func(capacity uint64) (workload.Generator, error) { return spec.Build(capacity) }
	capacity := uint64(cfg.CapacityGB) << 30

	gen, err := newGen(capacity)
	if err != nil {
		return err
	}
	crcNS, buildNS, err := packetBench(gen)
	if err != nil {
		return err
	}
	rep.set("packet.crc_ns", crcNS)
	rep.set("packet.build_ns", buildNS)
	pp, rm, err := queueBench(cfg.QueueDepth, cfg.XbarDepth)
	if err != nil {
		return err
	}
	rep.set("queue.push_pop_ns", pp)
	rep.set("queue.remove_ns", rm)

	saturated := func(workers int) (float64, float64, float64, error) {
		c := cfg
		c.Workers = workers
		if o.workload != "fabric_mesh" {
			h, err := eval.BuildSimple(c)
			if err != nil {
				return 0, 0, 0, err
			}
			g, err := newGen(capacity)
			if err != nil {
				return 0, 0, 0, err
			}
			return clockBench(h, g, nil)
		}
		sys, err := engine.Build(meshSpec(), c)
		if err != nil {
			return 0, 0, 0, err
		}
		g, err := newGen(sys.Capacity())
		if err != nil {
			return 0, 0, 0, err
		}
		return clockBench(sys.Engine(), g, sys.Route)
	}
	clockNS, sendNS, recvNS, err := saturated(1)
	if err != nil {
		return err
	}
	rep.set("core.clock_ns", clockNS)
	rep.set("core.send_ns", sendNS)
	rep.set("core.recv_ns", recvNS)

	switch o.workload {
	case "sparse_chase":
		g, err := newGen(capacity)
		if err != nil {
			return err
		}
		v, err := advanceIdleBench(cfg, g)
		if err != nil {
			return err
		}
		rep.set("core.advance_idle_ns", v)
	case "fabric_mesh":
		rep.set("sched.clock_ns.w1", clockNS)
		w2, _, _, err := saturated(o.workers)
		if err != nil {
			return err
		}
		rep.set("sched.clock_ns.w2", w2)
		sys, err := engine.Build(meshSpec(), cfg)
		if err != nil {
			return err
		}
		g, err := newGen(sys.Capacity())
		if err != nil {
			return err
		}
		rep.set("fabric.route_ns", routeBench(sys, g))
	}
	return nil
}
