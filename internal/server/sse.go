package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"hmcsim/internal/server/api"
)

// SSE streaming of one job's lifecycle: GET /v1/jobs/{id}/events.
//
// The stream is plain Server-Sent Events (text/event-stream): while the
// job runs, "progress" events carry api.Progress snapshots sampled from
// the job's lock-free probe at the requested cadence; the stream then
// closes after exactly one terminal event — "result" with the api.Result
// of a done job, or "error" with an api.Error envelope for a failed or
// cancelled job, or for a stream cut short by shutdown. Sampling is
// polling, not push: the probe side is updated wait-free by the engine's
// clock loop, so each snapshot costs a few atomic loads and never
// contends with the simulation (DESIGN.md §16). Ticks with nothing to
// say emit an SSE comment (": keepalive") instead of silence, so a
// stream following a queued job cannot be cut by idle-timeout proxies.

// SSE poll-interval bounds. The default matches a human watching a
// terminal; the floor keeps a client from turning the server into a
// busy-loop; the ceiling keeps ETA data fresher than the heartbeat
// most proxies need to hold a connection open.
const (
	defaultSSEInterval = 500 * time.Millisecond
	minSSEInterval     = 50 * time.Millisecond
	maxSSEInterval     = 30 * time.Second
)

// sseWriteTimeout bounds each event or keepalive write, flush included.
// A client that stops reading fills its socket buffers; the next write
// then fails at the deadline instead of blocking, and the stream
// goroutine exits. The server sets no WriteTimeout (streams outlive
// any fixed bound), so this per-write deadline is the only one.
const sseWriteTimeout = 10 * time.Second

// sseInterval parses and bounds the ?interval_ms= query parameter.
func sseInterval(raw string) (time.Duration, error) {
	if raw == "" {
		return defaultSSEInterval, nil
	}
	ms, err := strconv.Atoi(raw)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("server: interval_ms must be a positive integer, got %q", raw)
	}
	d := time.Duration(ms) * time.Millisecond
	if d < minSSEInterval {
		d = minSSEInterval
	}
	if d > maxSSEInterval {
		d = maxSSEInterval
	}
	return d, nil
}

// sseStream is one open event stream: a framing writer over the
// response plus the event-ID counter the "id:" field advances.
type sseStream struct {
	w      http.ResponseWriter
	rc     *http.ResponseController
	nextID int
}

// write sends one framed chunk and flushes it under a fresh
// sseWriteTimeout deadline. A wrapped writer that cannot take deadlines
// still streams, just without the bound.
func (s *sseStream) write(format string, args ...any) error {
	if err := s.rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout)); err != nil && !errors.Is(err, http.ErrNotSupported) {
		return err
	}
	if _, err := fmt.Fprintf(s.w, format, args...); err != nil {
		return err
	}
	return s.rc.Flush()
}

// keepalive writes one SSE comment line — invisible to event consumers
// by the SSE grammar — and flushes it, so a tick that emits no event
// still proves the connection alive to idle-timeout proxies and load
// balancers. Without it a stream is silent for as long as a job sits
// queued (no Progress yet) or a post-retry probe climbs back to the
// monotone cycle watermark.
func (s *sseStream) keepalive() error {
	return s.write(": keepalive\n\n")
}

// send frames one SSE event — "id:", "event:", then the payload JSON on
// a single "data:" line — and flushes it to the client immediately.
func (s *sseStream) send(event string, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	s.nextID++
	return s.write("id: %d\nevent: %s\ndata: %s\n\n", s.nextID, event, data)
}

// streamEvents serves one GET /v1/jobs/{id}/events request until the job
// settles, the client disconnects or the manager drains. It owns the
// response from the first streamed byte on; callers must have verified
// the job exists (404 must precede the text/event-stream header).
func (m *Manager) streamEvents(w http.ResponseWriter, r *http.Request, id string, interval time.Duration) {
	if _, ok := w.(http.Flusher); !ok {
		writeError(w, http.StatusInternalServerError, api.CodeInternal,
			fmt.Errorf("server: response writer cannot stream"))
		return
	}
	rc := http.NewResponseController(w)
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	if err := rc.Flush(); err != nil {
		return
	}

	m.sseActive.Add(1)
	defer m.sseActive.Add(-1)

	s := &sseStream{w: w, rc: rc}
	// A deadline left behind would fail the next request served on this
	// keep-alive connection.
	defer rc.SetWriteDeadline(time.Time{})
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	// lastCycles keeps the stream's advertised conformance property —
	// progress cycles are monotonically non-decreasing — even across a
	// retry, which restarts the engine (and its probe) from cycle zero.
	var lastCycles uint64
	emitted := false
	for {
		st, err := m.Get(id)
		if err != nil {
			// The job table never forgets jobs, so this is unreachable in
			// practice; settle the stream rather than wedge it.
			s.send(api.EventError, api.Error{Code: api.CodeUnknownJob, Message: err.Error()})
			return
		}
		if st.State.Terminal() {
			s.sendTerminal(st)
			return
		}
		if p := st.Progress; p != nil && (!emitted || p.Cycles >= lastCycles) {
			if s.send(api.EventProgress, p) != nil {
				return // client gone
			}
			lastCycles = p.Cycles
			emitted = true
		} else if s.keepalive() != nil {
			return // client gone
		}
		select {
		case <-ticker.C:
		case <-r.Context().Done():
			// Client disconnect: the job keeps running, only the stream
			// ends.
			return
		case <-m.workersDone:
			// The pool has drained. A store-backed suspend leaves queued
			// jobs non-terminal forever in this process, so waiting on
			// them would hang the stream past Shutdown; re-check once for
			// a settle that raced the drain, then cut the stream loose.
			if st, err := m.Get(id); err == nil && st.State.Terminal() {
				s.sendTerminal(st)
				return
			}
			s.send(api.EventError, api.Error{
				Code:    api.CodeShuttingDown,
				Message: "server: stream closed by shutdown before the job settled",
			})
			return
		}
	}
}

// sendTerminal emits the stream's single terminal event for a settled
// job: "result" for done, "error" (job_failed / job_cancelled) otherwise.
func (s *sseStream) sendTerminal(st Status) {
	switch st.State {
	case StateDone:
		s.send(api.EventResult, st.Result)
	case StateCancelled:
		s.send(api.EventError, api.Error{Code: api.CodeJobCancelled, Message: st.Error})
	default:
		s.send(api.EventError, api.Error{Code: api.CodeJobFailed, Message: st.Error})
	}
}
