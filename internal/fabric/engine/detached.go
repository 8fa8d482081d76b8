package engine

import (
	"fmt"
	"sync"

	"hmcsim/internal/core"
	"hmcsim/internal/host"
	"hmcsim/internal/workload"
)

// This file carries the detached multi-object execution mode: N fully
// independent engines (no inter-cube links, every link host-wired) each
// clocked by its own goroutine — the paper's multi-channel NUMA usage.
// Detached channels trade the fabric's single lockstep clock for
// per-channel clock domains; per-channel results are bit-identical to
// running each engine alone (TestDetachedChannels pins this).

// BuildChannels constructs n identical, fully independent engines from a
// per-channel configuration, each with every link of every device wired
// to the host (the paper's multi-object usage).
func BuildChannels(n int, obj core.Config) ([]*core.HMC, error) {
	chans := make([]*core.HMC, 0, n)
	for i := 0; i < n; i++ {
		h, err := core.New(obj)
		if err != nil {
			return nil, err
		}
		for d := 0; d < obj.NumDevs; d++ {
			for l := 0; l < obj.NumLinks; l++ {
				if err := h.ConnectHost(d, l); err != nil {
					return nil, err
				}
			}
		}
		chans = append(chans, h)
	}
	return chans, nil
}

// RunDetached drives every channel concurrently: channel i executes
// nPerChannel accesses from mkGen(i) under its own clock domain and host
// driver. The channels share nothing; goroutine parallelism mirrors the
// hardware parallelism. The first channel error (lowest index) aborts
// the aggregate.
func RunDetached(chans []*core.HMC, mkGen func(channel int) workload.Generator, nPerChannel uint64, opts host.Options) ([]host.Result, error) {
	results := make([]host.Result, len(chans))
	errs := make([]error, len(chans))
	var wg sync.WaitGroup
	for i := range chans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := host.NewDriver(chans[i], opts)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = d.Run(mkGen(i), nPerChannel)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fabric: channel %d: %w", i, err)
		}
	}
	return results, nil
}
