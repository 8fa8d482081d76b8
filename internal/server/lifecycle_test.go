package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/host"
	"hmcsim/internal/store"
)

// waitTerminalWithin is waitTerminal with a caller-chosen deadline, for
// tests whose failure mode is a job that never settles.
func waitTerminalWithin(t *testing.T, m *Manager, id string, limit time.Duration) Status {
	t.Helper()
	deadline := time.Now().Add(limit)
	for {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelWinsOverAttemptError pins the cancel-wins rule: a running job
// whose cancel was requested settles cancelled whatever error its
// interrupted attempt returns. A transient error, a panic or an unusable
// checkpoint used to send the cancelled job down the retry path, which
// then dropped it: the job stayed queued forever, and with a store no
// cancelled record was written, so a restart reran it.
func TestCancelWinsOverAttemptError(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func() (Result, error)
	}{
		{"transient", func() (Result, error) { return Result{}, Transient(errors.New("backend dropped")) }},
		{"panic", func() (Result, error) { panic("backend crashed") }},
		{"bad-checkpoint", func() (Result, error) { return Result{}, fmt.Errorf("%w: digest mismatch", ErrBadCheckpoint) }},
	} {
		for _, durable := range []bool{false, true} {
			name := tc.name + "/memory"
			if durable {
				name = tc.name + "/store"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				var s *store.Store
				if durable {
					s = openStore(t, dir)
				}
				started := make(chan struct{}, 1)
				m := NewManager(ManagerConfig{
					Workers: 1, QueueDepth: 4, Store: s, MaxAttempts: 3,
					RetryBaseDelay: time.Millisecond, RetryMaxDelay: time.Millisecond,
					runFn: func(ctx context.Context, _ JobSpec, _ ExecOptions) (Result, error) {
						started <- struct{}{}
						<-ctx.Done()
						return tc.fail()
					},
				})
				st, err := m.Submit(testSpec("doomed", core.Table1Configs()[0], 64))
				if err != nil {
					t.Fatal(err)
				}
				select {
				case <-started:
				case <-time.After(10 * time.Second):
					t.Fatal("job never started")
				}
				if _, err := m.Cancel(st.ID); err != nil {
					t.Fatalf("cancel running job: %v", err)
				}
				if fin := waitTerminalWithin(t, m, st.ID, 5*time.Second); fin.State != StateCancelled {
					t.Errorf("cancelled job reads %s (attempt %d, error %q), want cancelled",
						fin.State, fin.Attempt, fin.Error)
				}
				shutdownNow(t, m)
				sub, comp, failed, canc, coal := m.submitted.Value(), m.completed.Value(),
					m.failed.Value(), m.cancelledN.Value(), m.coalesced.Value()
				if sub != 1 || canc != 1 || comp+failed+coal != 0 {
					t.Errorf("ledger: submitted %d, cancelled %d, completed %d, failed %d, coalesced %d; want 1, 1, 0, 0, 0",
						sub, canc, comp, failed, coal)
				}
				if !durable {
					return
				}
				s.Close()

				s2 := openStore(t, dir)
				defer s2.Close()
				var reran atomic.Bool
				m2 := NewManager(ManagerConfig{
					Workers: 1, QueueDepth: 4, Store: s2,
					runFn: func(context.Context, JobSpec, ExecOptions) (Result, error) {
						reran.Store(true)
						return Result{}, nil
					},
				})
				defer shutdownNow(t, m2)
				if got, err := m2.Get(st.ID); err != nil || got.State != StateCancelled {
					t.Errorf("replayed job: state %s err %v, want cancelled", got.State, err)
				}
				if m2.Recovering() || reran.Load() {
					t.Error("a reopened manager requeued the cancelled job")
				}
			})
		}
	}
}

// TestIdempotencyKeyScopedByTenant pins that an idempotency key names a
// job within its tenant only: two tenants (and the anonymous one) using
// the same key each get their own job, and each replay of the key
// answers with the replaying tenant's job — live and after the index is
// rebuilt from the journal.
func TestIdempotencyKeyScopedByTenant(t *testing.T) {
	dir := t.TempDir()
	cfg := ManagerConfig{
		Workers: 2, QueueDepth: 8,
		Tenants: []TenantConfig{{Name: "alice", Key: "key-a"}, {Name: "bob", Key: "key-b"}},
		runFn: func(_ context.Context, spec JobSpec, _ ExecOptions) (Result, error) {
			return Result{Cycles: 1, Sent: spec.Requests}, nil
		},
	}
	tenants := []string{"alice", "bob", ""}
	spec := testSpec("shared", core.Table1Configs()[0], 64)
	spec.IdempotencyKey = "shared"

	s := openStore(t, dir)
	cfg.Store = s
	m := NewManager(cfg)
	ids := map[string]string{}
	for _, tenant := range tenants {
		st, created, err := m.SubmitTenant(spec, tenant)
		if err != nil || !created {
			t.Fatalf("tenant %q first submit: created=%v err=%v", tenant, created, err)
		}
		if st.Tenant != tenant {
			t.Fatalf("tenant %q got a job of tenant %q", tenant, st.Tenant)
		}
		for other, id := range ids {
			if id == st.ID {
				t.Fatalf("tenants %q and %q share job %s", other, tenant, id)
			}
		}
		ids[tenant] = st.ID
	}
	replay := func(m *Manager, when string) {
		t.Helper()
		for _, tenant := range tenants {
			st, created, err := m.SubmitTenant(spec, tenant)
			if err != nil || created || st.ID != ids[tenant] || st.Tenant != tenant {
				t.Errorf("%s: tenant %q replay: id %s (want %s) tenant %q created=%v err=%v",
					when, tenant, st.ID, ids[tenant], st.Tenant, created, err)
			}
			if _, err := m.GetTenant(ids[tenant], tenant); err != nil {
				t.Errorf("%s: tenant %q cannot read its own job: %v", when, tenant, err)
			}
		}
	}
	replay(m, "live")
	for _, id := range ids {
		waitTerminal(t, m, id)
	}
	shutdownNow(t, m)
	s.Close()

	s2 := openStore(t, dir)
	defer s2.Close()
	cfg.Store = s2
	m2 := NewManager(cfg)
	defer shutdownNow(t, m2)
	replay(m2, "after restart")
	if n := len(m2.List()); n != len(tenants) {
		t.Errorf("replays created jobs: %d in the table, want %d", n, len(tenants))
	}
}

// Outcomes the model test's fake executor picks per spec.
const (
	modelOK        = iota // success
	modelFlaky            // transient failure on every other call, else success
	modelTransient        // transient failure every time
	modelPanic            // panics every time
	modelHard             // permanent failure
	modelBlock            // blocks until cancelled (or suspended by a store-backed drain)
	modelOutcomes
)

// modelSpecs bounds the distinct specs one model run draws; spec i runs
// modelBaseRequests+i requests, which is what keys it.
const (
	modelSpecs        = 24
	modelBaseRequests = 64
)

// TestManagerModel drives a Manager through seeded random interleavings
// of unique, identical (cache hit or coalesced) and idempotent-replay
// submissions across two tenants, one under a max_queued quota, and of
// cancels aimed at queued, parked, running, follower and leader jobs.
// After every step it checks, under the manager's lock, that each live
// job is in exactly one place and that the ledger reconciles with the
// job table. After Shutdown the ledger must still match the table, an
// in-memory manager must have settled every job, and a store-backed one,
// which may hold queued jobs for the next process, must replay every
// terminal phase when reopened.
func TestManagerModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, durable := range []bool{false, true} {
			name := fmt.Sprintf("seed%d/memory", seed)
			if durable {
				name = fmt.Sprintf("seed%d/store", seed)
			}
			t.Run(name, func(t *testing.T) { runManagerModel(t, seed, durable) })
		}
	}
}

func runManagerModel(t *testing.T, seed int64, durable bool) {
	rng := rand.New(rand.NewSource(seed))
	var outcome [modelSpecs]int
	for i := range outcome {
		outcome[i] = rng.Intn(modelOutcomes)
	}
	var calls [modelSpecs]atomic.Int32
	run := func(ctx context.Context, spec JobSpec, eo ExecOptions) (Result, error) {
		i := int(spec.Requests - modelBaseRequests)
		ok := Result{Cycles: 1, Sent: spec.Requests, Completed: spec.Requests,
			ResultDigest: fmt.Sprintf("%016x", spec.Requests)}
		switch outcome[i] {
		case modelFlaky:
			if calls[i].Add(1)%2 == 1 {
				return Result{}, Transient(errors.New("flaky backend"))
			}
		case modelTransient:
			return Result{}, Transient(errors.New("backend down"))
		case modelPanic:
			panic("backend crashed")
		case modelHard:
			return Result{}, errors.New("bad spec")
		case modelBlock:
			for {
				select {
				case <-ctx.Done():
					// Reported as transient and without wrapping the
					// context error, like a backend dropping the call.
					return Result{}, Transient(fmt.Errorf("backend dropped: %v", ctx.Err()))
				case <-time.After(time.Millisecond):
					if eo.Interrupt != nil && eo.Interrupt() != nil {
						return Result{}, host.ErrSuspended
					}
				}
			}
		}
		return ok, nil
	}

	dir := t.TempDir()
	cfg := ManagerConfig{
		Workers: 2, QueueDepth: 6, MaxAttempts: 2,
		RetryBaseDelay: time.Millisecond, RetryMaxDelay: 4 * time.Millisecond,
		CacheBytes: cacheMB,
		Tenants: []TenantConfig{
			{Name: "alice", Key: "key-a"},
			{Name: "bob", Key: "key-b", MaxQueued: 2},
		},
		runFn: run,
	}
	var s *store.Store
	if durable {
		s = openStore(t, dir)
		cfg.Store = s
	}
	m := NewManager(cfg)
	t.Cleanup(func() { // a failed step still stops the pool before TempDir goes
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_ = m.Shutdown(ctx) // idempotent; the run checks its own Shutdown
	})
	tenants := []string{"alice", "bob"}
	type idem struct{ tenant, key string }
	keyed := map[idem]string{}       // accepted keyed submissions
	cancelAsked := map[string]bool{} // jobs whose cancel found them running
	nextSpec := 0

	submit := func(i int, tenant, key string) {
		spec := testSpec(fmt.Sprintf("spec-%d", i), core.Table1Configs()[0], uint64(modelBaseRequests+i))
		spec.IdempotencyKey = key
		want, replay := keyed[idem{tenant, key}]
		st, created, err := m.SubmitTenant(spec, tenant)
		switch {
		case key != "" && replay:
			if err != nil || created || st.ID != want {
				t.Fatalf("tenant %s replay of key %s: id %s created=%v err=%v, want %s",
					tenant, key, st.ID, created, err, want)
			}
		case err != nil:
			if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrQuotaExceeded) {
				t.Fatalf("submit: %v", err)
			}
		case !created || st.Tenant != tenant:
			t.Fatalf("tenant %s fresh submit (key %q) answered with job %s of tenant %q, created=%v",
				tenant, key, st.ID, st.Tenant, created)
		case key != "":
			keyed[idem{tenant, key}] = st.ID
		}
	}

	for step := 0; step < 150; step++ {
		tenant := tenants[rng.Intn(len(tenants))]
		switch r := rng.Intn(100); {
		case r < 25 && nextSpec < modelSpecs: // unique
			submit(nextSpec, tenant, "")
			nextSpec++
		case r < 45 && nextSpec > 0: // identical: a cache hit or a follower
			submit(rng.Intn(nextSpec), tenant, "")
		case r < 55 && nextSpec > 0: // keyed: fresh, or a replay of the same tenant's key
			submit(rng.Intn(nextSpec), tenant, fmt.Sprintf("key-%d", rng.Intn(3)))
		case r < 85:
			if id := pickModelCancel(m, rng); id != "" {
				st, err := m.Cancel(id)
				switch {
				case errors.Is(err, ErrJobFinished):
				case err != nil:
					t.Fatalf("cancel %s: %v", id, err)
				case st.State == StateRunning:
					cancelAsked[id] = true
				case st.State != StateCancelled:
					t.Fatalf("cancel %s answered %s", id, st.State)
				}
			}
		default:
			time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
		}
		if err := checkModel(m, true); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
	}

	// A short drain: blocked jobs of an in-memory manager only end when
	// the deadline cancels them, which fails them.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown: %v", err)
	}
	// A backoff timer that fired before Shutdown settles its job once it
	// gets the lock; give those a moment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := checkModel(m, false)
		if err == nil {
			err = checkSettled(m, durable, cancelAsked)
		}
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d after shutdown: %v", seed, err)
		}
		time.Sleep(time.Millisecond)
	}
	if !durable {
		return
	}

	// Replay: every terminal phase comes back as it was.
	want := map[string]Status{}
	for _, st := range m.List() {
		want[st.ID] = st
	}
	s.Close()
	s2 := openStore(t, dir)
	defer s2.Close()
	cfg.Store = s2
	cfg.runFn = func(context.Context, JobSpec, ExecOptions) (Result, error) { return Result{}, nil }
	m2 := NewManager(cfg)
	defer shutdownNow(t, m2)
	for id, w := range want {
		got, err := m2.Get(id)
		if err != nil {
			t.Errorf("job %s lost on replay: %v", id, err)
			continue
		}
		if got.Tenant != w.Tenant || (w.State.Terminal() && got.State != w.State) {
			t.Errorf("job %s replays as %s of tenant %q, was %s of tenant %q",
				id, got.State, got.Tenant, w.State, w.Tenant)
		}
	}
}

// pickModelCancel picks a cancel target: first a category among those
// with members (in a lane, parked on a retry timer, running, following a
// leader, leading followers), then a job in it.
func pickModelCancel(m *Manager, rng *rand.Rand) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var lane, parked, running, follower, leader []string
	m.fq.mu.Lock()
	for _, l := range m.fq.lanes {
		for _, j := range l.jobs {
			lane = append(lane, j.id)
		}
	}
	m.fq.mu.Unlock()
	for id := range m.retryTimers {
		parked = append(parked, id)
	}
	for _, id := range m.order {
		if m.jobs[id].state.phase == StateRunning {
			running = append(running, id)
		}
	}
	for _, lead := range m.inflight {
		if len(lead.followers) > 0 {
			leader = append(leader, lead.id)
		}
		for _, f := range lead.followers {
			if !f.state.phase.Terminal() {
				follower = append(follower, f.id)
			}
		}
	}
	var groups [][]string
	for _, g := range [][]string{lane, parked, running, follower, leader} {
		if len(g) > 0 {
			groups = append(groups, g)
		}
	}
	if len(groups) == 0 {
		return ""
	}
	g := groups[rng.Intn(len(groups))]
	return g[rng.Intn(len(g))]
}

// checkModel audits the manager under its lock. Every live job must be in
// exactly one place: a tenant lane, the retry-parked set, running, or a
// live leader's follower list. The one exception is a job a worker has
// popped but not yet started, so with placement checked (live), each
// tenant may hold at most as many placeless queued jobs as its lane has
// popped-but-unreleased slots not taken by running jobs. A settled job
// is in no lane and on no timer, no settled job leads, and the ledger
// counters equal a recount of the job table, live jobs included.
func checkModel(m *Manager, live bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	inLane := map[*job]int{}
	popped := map[string]int{}
	m.fq.mu.Lock()
	size := 0
	for tenant, l := range m.fq.lanes {
		for _, j := range l.jobs {
			inLane[j]++
		}
		size += len(l.jobs)
		popped[tenant] = l.running
	}
	qsize := m.fq.size
	m.fq.mu.Unlock()
	if size != qsize {
		return fmt.Errorf("queue size %d, lanes hold %d jobs", qsize, size)
	}
	following := map[*job]int{}
	for key, lead := range m.inflight {
		if lead.state.phase.Terminal() {
			return fmt.Errorf("settled job %s (%s) still leads", lead.id, lead.state.phase)
		}
		if lead.specKey != key {
			return fmt.Errorf("job %s leads a key it does not have", lead.id)
		}
		for _, f := range lead.followers {
			if !f.state.phase.Terminal() {
				following[f]++
			}
		}
	}
	running, placeless := map[string]int{}, map[string]int{}
	var open, done, failed, cancelled uint64
	for _, id := range m.order {
		j := m.jobs[id]
		_, parked := m.retryTimers[id]
		places := inLane[j] + following[j]
		if parked {
			places++
		}
		switch j.state.phase {
		case StateRunning:
			open++
			running[j.tenant]++
			if places != 0 {
				return fmt.Errorf("running job %s is also in %d queue places", id, places)
			}
		case StateQueued:
			open++
			if places > 1 {
				return fmt.Errorf("queued job %s is in %d places", id, places)
			}
			if places == 0 {
				placeless[j.tenant]++
			}
		default:
			if inLane[j] > 0 || parked {
				return fmt.Errorf("%s job %s is still in a lane or on a retry timer", j.state.phase, id)
			}
			switch j.state.phase {
			case StateDone:
				done++
			case StateFailed:
				failed++
			case StateCancelled:
				cancelled++
			}
		}
	}
	if live {
		for tenant, n := range placeless {
			if n > popped[tenant]-running[tenant] {
				return fmt.Errorf("tenant %q has %d queued jobs in no lane, timer or follower list (%d popped, %d running)",
					tenant, n, popped[tenant], running[tenant])
			}
		}
	}
	sub, comp, fail, canc, coal := m.submitted.Value(), m.completed.Value(),
		m.failed.Value(), m.cancelledN.Value(), m.coalesced.Value()
	if sub != comp+coal+fail+canc+open || comp+coal != done || fail != failed || canc != cancelled {
		return fmt.Errorf("ledger submitted %d completed %d coalesced %d failed %d cancelled %d; table has %d live, %d done, %d failed, %d cancelled",
			sub, comp, coal, fail, canc, open, done, failed, cancelled)
	}
	return nil
}

// checkSettled is the post-Shutdown audit: no retry timer is left, a job
// whose cancel found it running ended cancelled (or done, if its attempt
// succeeded anyway), and an in-memory manager has no live job left. A
// store-backed one may leave queued jobs for the next process.
func checkSettled(m *Manager, durable bool, cancelAsked map[string]bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.retryTimers); n != 0 {
		return fmt.Errorf("%d retry timers left", n)
	}
	for _, id := range m.order {
		switch p := m.jobs[id].state.phase; {
		case cancelAsked[id] && p != StateCancelled && p != StateDone:
			return fmt.Errorf("job %s was cancelled while running but reads %s", id, p)
		case !durable && !p.Terminal():
			return fmt.Errorf("job %s still %s after shutdown", id, p)
		}
	}
	return nil
}
