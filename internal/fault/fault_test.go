package fault

import "testing"

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"full", Config{TransientPPM: 999999, LinkFailPPM: 1, VaultPPM: 500, MaxRetries: 200}, true},
		{"transient negative", Config{TransientPPM: -1}, false},
		{"transient certain", Config{TransientPPM: 1000000}, false},
		{"linkfail certain", Config{LinkFailPPM: 1000000}, false},
		{"vault negative", Config{VaultPPM: -5}, false},
		{"retries negative", Config{MaxRetries: -1}, false},
		{"retries over byte budget", Config{MaxRetries: 201}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	for _, c := range []Config{
		{TransientPPM: 1},
		{LinkFailPPM: 1},
		{VaultPPM: 1},
		{FailedLinks: []LinkID{{Dev: 0, Link: 1}}},
		{FailedVaults: []VaultID{{Dev: 0, Vault: 3}}},
	} {
		if !c.Enabled() {
			t.Errorf("config %+v reports disabled", c)
		}
	}
}

func TestEngineDeterministicStream(t *testing.T) {
	cfg := Config{TransientPPM: 250000, Seed: 42}
	a, b := NewEngine(cfg), NewEngine(cfg)
	fired := 0
	for i := 0; i < 10000; i++ {
		ra, rb := a.Transient(), b.Transient()
		if ra != rb {
			t.Fatalf("streams diverged at roll %d", i)
		}
		if ra {
			fired++
		}
	}
	// 25% rate over 10k rolls: a wildly wrong splitmix64 would miss this.
	if fired < 2000 || fired > 3000 {
		t.Errorf("transient rate fired %d/10000 at 250000 PPM", fired)
	}
	// Reset rewinds the stream to the seed: the first 100 rolls replay.
	a.Reset()
	first := make([]bool, 100)
	for i := range first {
		first[i] = a.Transient()
	}
	a.Reset()
	for i, want := range first {
		if got := a.Transient(); got != want {
			t.Fatalf("post-Reset roll %d = %v, want %v", i, got, want)
		}
	}
}

func TestEngineZeroRatesNeverFire(t *testing.T) {
	e := NewEngine(Config{Seed: 7})
	vs := e.VaultStream(0, 0)
	for i := 0; i < 1000; i++ {
		if e.Transient() || e.LinkFailure() || vs.Fault() {
			t.Fatal("zero-rate engine fired a fault")
		}
	}
}

func TestEngineFailureRegistries(t *testing.T) {
	e := NewEngine(Config{FailedVaults: []VaultID{{Dev: 1, Vault: 5}}})
	if !e.VaultFailed(1, 5) {
		t.Error("statically failed vault not marked")
	}
	if e.VaultFailed(1, 4) || e.LinkFailed(0, 0) {
		t.Error("healthy components marked failed")
	}

	id := LinkID{Dev: 0, Link: 2}
	if !e.FailLink(id) {
		t.Error("first FailLink not reported as new")
	}
	if e.FailLink(id) {
		t.Error("repeated FailLink reported as new")
	}
	if !e.LinkFailed(0, 2) || e.FailedLinkCount() != 1 {
		t.Errorf("failed-link state wrong: failed=%v count=%d", e.LinkFailed(0, 2), e.FailedLinkCount())
	}
	if !e.FailVault(VaultID{Dev: 2, Vault: 0}) || e.FailVault(VaultID{Dev: 2, Vault: 0}) {
		t.Error("FailVault newness misreported")
	}

	// Reset clears dynamic failures but re-applies the static set.
	e.Reset()
	if e.LinkFailed(0, 2) {
		t.Error("Reset kept a dynamically failed link")
	}
	if !e.VaultFailed(1, 5) {
		t.Error("Reset dropped a statically failed vault")
	}
}

func TestMaxRetriesDefault(t *testing.T) {
	if got := NewEngine(Config{}).MaxRetries(); got != DefaultMaxRetries {
		t.Errorf("default retry budget = %d, want %d", got, DefaultMaxRetries)
	}
	if got := NewEngine(Config{MaxRetries: 3}).MaxRetries(); got != 3 {
		t.Errorf("explicit retry budget = %d, want 3", got)
	}
}

func TestIDStrings(t *testing.T) {
	if got := (LinkID{Dev: 2, Link: 3}).String(); got != "2:3" {
		t.Errorf("LinkID string = %q", got)
	}
	if got := (VaultID{Dev: 1, Vault: 15}).String(); got != "1:15" {
		t.Errorf("VaultID string = %q", got)
	}
}

// TestVaultStreamDeterministicAndIndependent pins the per-vault stream
// contract the fault digest relies on: a vault's fault schedule is a pure
// function of (seed, dev, vault, draw index), unaffected by draws from
// other vaults or from the engine's shared link stream.
func TestVaultStreamDeterministicAndIndependent(t *testing.T) {
	cfg := Config{VaultPPM: 250000, TransientPPM: 300000, Seed: 42}
	schedule := func(e *Engine, dev, vault, n int) []bool {
		s := e.VaultStream(dev, vault)
		out := make([]bool, n)
		for i := range out {
			out[i] = s.Fault()
		}
		return out
	}

	a := NewEngine(cfg)
	want := schedule(a, 0, 3, 64)

	// Same coordinates, fresh engine: identical schedule.
	b := NewEngine(cfg)
	// Interleave draws from other vaults and from the shared link stream
	// before and between reads: the schedule must not move.
	for i := 0; i < 100; i++ {
		_ = b.Transient()
		_ = b.LinkFailure()
	}
	_ = schedule(b, 0, 2, 17)
	got := schedule(b, 0, 3, 64)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d differs under interleaving: got %v, want %v", i, got[i], want[i])
		}
	}

	// Distinct vaults are decorrelated: neighbouring streams must not be
	// identical over a long window.
	other := schedule(a, 0, 4, 64)
	same := true
	for i := range want {
		if want[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("vault 3 and vault 4 produced identical 64-draw schedules")
	}

	// The configured rate is honoured within statistical tolerance.
	e := NewEngine(Config{VaultPPM: 250000, Seed: 9})
	fires := 0
	const draws = 20000
	s := e.VaultStream(1, 7)
	for i := 0; i < draws; i++ {
		if s.Fault() {
			fires++
		}
	}
	rate := float64(fires) / draws
	if rate < 0.22 || rate > 0.28 {
		t.Errorf("empirical vault fault rate %.3f, want ~0.25", rate)
	}

	// A zero rate never fires and never needs state.
	z := NewEngine(Config{Seed: 5})
	zs := z.VaultStream(0, 0)
	for i := 0; i < 100; i++ {
		if zs.Fault() {
			t.Fatal("zero-rate stream fired")
		}
	}
}
