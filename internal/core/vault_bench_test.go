package core

import (
	"testing"

	"hmcsim/internal/packet"
)

// BenchmarkVaultStage isolates sub-cycle stages 3 and 4 — the serial
// bank-conflict and vault service passes — from the rest of the clock
// cycle. Crossbar delivery into the vault queues and response draining
// run with the timer stopped, so the measured cost is one vaultStages()
// call over loaded vault queues. The single w=1 row keeps the row name
// of earlier BENCH_core.json records comparable.
func BenchmarkVaultStage(b *testing.B) {
	b.Run("w=1", benchVaultStage)
}

func benchVaultStage(b *testing.B) {
	cfg := testConfig()
	h, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for l := 0; l < cfg.NumLinks; l++ {
		if err := h.ConnectHost(0, l); err != nil {
			b.Fatal(err)
		}
	}
	if err := h.seal(); err != nil {
		b.Fatal(err)
	}
	// Deterministic address stream spreading load over vaults and banks.
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng
	}
	capacity := uint64(cfg.CapacityGB) << 30
	tag := 0
	// deliver tops up the vault request queues: send until the links
	// stall, then run the crossbar stage (Clock's stages 0-2 sans retry,
	// which is a no-op without faults) to move the packets inward.
	deliver := func() {
		for l := 0; l < cfg.NumLinks; l++ {
			for {
				words, err := h.BuildRequestPacket(packet.Request{
					Addr: next() % capacity &^ 63,
					Tag:  uint16(tag & 0x1ff), Cmd: packet.CmdRD64,
				}, l)
				if err != nil {
					b.Fatal(err)
				}
				tag++
				if h.Send(0, l, words) != nil {
					break
				}
			}
		}
		h.clearCycleFlags()
		for _, cube := range h.rootOrder {
			h.xbarRequestStage(cube)
		}
	}
	// drainResponses runs Clock's stage 5 and empties the host links so
	// the vault response queues never backpressure the timed stage.
	drainResponses := func() {
		for _, cube := range h.rootOrder {
			h.responseStage(cube)
		}
		for l := 0; l < cfg.NumLinks; l++ {
			for {
				if _, err := h.Recv(0, l); err != nil {
					break
				}
			}
		}
		h.clk++
	}
	deliver()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.vaultStages()
		b.StopTimer()
		drainResponses()
		deliver()
		b.StartTimer()
	}
}
