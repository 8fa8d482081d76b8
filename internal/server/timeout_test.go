package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/server/api"
)

// Shortened copies of the production timeouts, so the tests run in well
// under a second; the server is otherwise exactly what NewHTTPServer
// builds.
const (
	testReadHeaderTimeout = 150 * time.Millisecond
	testIdleTimeout       = 200 * time.Millisecond
)

// serveHardened starts NewHTTPServer's server for h on a loopback port
// with the test timeouts and returns its address.
func serveHardened(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := NewHTTPServer(h)
	if srv.ReadHeaderTimeout != ReadHeaderTimeout || srv.IdleTimeout != IdleTimeout {
		t.Fatalf("NewHTTPServer timeouts = %v/%v, want %v/%v",
			srv.ReadHeaderTimeout, srv.IdleTimeout, ReadHeaderTimeout, IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("NewHTTPServer sets ReadTimeout %v / WriteTimeout %v; SSE streams need neither",
			srv.ReadTimeout, srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout, srv.IdleTimeout = testReadHeaderTimeout, testIdleTimeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// waitClosed reads conn until the server closes it and returns how long
// that took and everything read. It fails the test if the connection is
// still open after limit.
func waitClosed(t *testing.T, conn net.Conn, limit time.Duration) (time.Duration, string) {
	t.Helper()
	start := time.Now()
	conn.SetReadDeadline(start.Add(limit))
	got, err := io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %v (read %q)", limit, got)
	}
	return time.Since(start), string(got)
}

// TestSlowHeaderClientDisconnected opens a connection and trickles a
// request header one byte at a time, never finishing it. The server must
// drop the connection once ReadHeaderTimeout passes, however steadily
// the bytes keep coming; without the timeout the connection stays pinned
// for as long as the client cares to trickle.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 1})
	defer shutdownNow(t, m)
	addr := serveHardened(t, NewHandler(m))

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/healthz HTTP/1.1\r\nHost: hmcsim\r\n"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			// Write errors are expected once the server hangs up.
			if _, err := io.WriteString(conn, "x"); err != nil {
				return
			}
		}
	}()
	took, got := waitClosed(t, conn, 20*testReadHeaderTimeout)
	if took < testReadHeaderTimeout/2 {
		t.Errorf("connection closed after %v, before the %v header timeout", took, testReadHeaderTimeout)
	}
	if strings.HasPrefix(got, "HTTP/1.1 200") {
		t.Errorf("server answered an unfinished request: %q", got)
	}
}

// TestIdleKeepAliveClosed checks the other end of the connection
// lifetime: a keep-alive connection that goes quiet after a complete
// request is closed once IdleTimeout passes.
func TestIdleKeepAliveClosed(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 1, QueueDepth: 1})
	defer shutdownNow(t, m)
	addr := serveHardened(t, NewHandler(m))

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/healthz HTTP/1.1\r\nHost: hmcsim\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	rsp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rsp.Body)
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusOK || rsp.Close {
		t.Fatalf("healthz = HTTP %d close=%v, want a kept-alive 200", rsp.StatusCode, rsp.Close)
	}
	took, got := waitClosed(t, conn, 20*testIdleTimeout)
	if took < testIdleTimeout/2 {
		t.Errorf("idle connection closed after %v, before the %v idle timeout", took, testIdleTimeout)
	}
	if got != "" {
		t.Errorf("server sent %q on an idle connection", got)
	}
}

// TestSSEOutlivesServerTimeouts follows a running job's event stream for
// several times both connection timeouts. The stream must stay open and
// keep delivering frames the whole time, then end with the job's
// terminal event: neither timeout may cut a request in progress.
func TestSSEOutlivesServerTimeouts(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 2,
		runFn: blockingRun(started, release),
	})
	defer shutdownNow(t, m)
	addr := serveHardened(t, NewHandler(m))

	st, err := m.Submit(testSpec("long-runner", core.Table1Configs()[0], 8))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	url := fmt.Sprintf("http://%s/v1/jobs/%s/events?interval_ms=50", addr, st.ID)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	rsp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if rsp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = HTTP %d", url, rsp.StatusCode)
	}
	sc := bufio.NewScanner(rsp.Body)

	hold := 4 * (testReadHeaderTimeout + testIdleTimeout)
	start := time.Now()
	frames := 0
	for time.Since(start) < hold {
		if !sc.Scan() {
			t.Fatalf("stream ended after %v (%d frames), before the job finished: %v",
				time.Since(start), frames, sc.Err())
		}
		if sc.Text() == "" {
			frames++
		}
	}
	if min := int(hold / (100 * time.Millisecond)); frames < min {
		t.Errorf("%d frames in %v, want at least %d at a 50ms interval", frames, hold, min)
	}

	close(release)
	for {
		ev, ok := nextSSE(t, sc)
		if !ok {
			t.Fatal("stream ended without a terminal event")
		}
		if ev.event == api.EventResult {
			break
		}
		if ev.event != api.EventProgress {
			t.Fatalf("unexpected event %q (%s)", ev.event, ev.data)
		}
	}
	if st := waitTerminal(t, m, st.ID); st.State != StateDone {
		t.Fatalf("job settled %s (%s)", st.State, st.Error)
	}
}

// smallBufListener shrinks the send buffer of every accepted connection,
// so a client that stops reading stalls the server's writes after a few
// kilobytes instead of after megabytes of loopback buffering.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(1024)
	}
	return c, err
}

// TestSSEStalledClientDisconnected opens an event stream and never reads
// from it while progress events keep coming. Once the socket buffers
// fill, the next write must fail at sseWriteTimeout: the stream handler
// returns and the server drops the connection. Without the per-write
// deadline the write blocks for as long as the job runs, pinning the
// stream goroutine.
func TestSSEStalledClientDisconnected(t *testing.T) {
	release := make(chan struct{})
	m := NewManager(ManagerConfig{
		Workers: 1, QueueDepth: 1,
		runFn: func(ctx context.Context, spec JobSpec, eo ExecOptions) (Result, error) {
			// Publish progress once: every tick then emits a progress
			// event, not just a keepalive comment.
			eo.Probe.Begin(spec.Requests, time.Now())
			eo.Probe.Set(1, 1, 0)
			select {
			case <-release:
				return Result{Config: spec.Name, Cycles: 1, Sent: spec.Requests}, nil
			case <-ctx.Done():
				return Result{}, ctx.Err()
			}
		},
	})
	defer shutdownNow(t, m)
	defer close(release)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewHTTPServer(NewHandler(m))
	go srv.Serve(smallBufListener{ln})
	defer srv.Close()

	st, err := m.Submit(testSpec("stalled", core.Table1Configs()[0], 8))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(1024)
	if _, err := fmt.Fprintf(conn, "GET /v1/jobs/%s/events?interval_ms=50 HTTP/1.1\r\nHost: hmcsim\r\n\r\n", st.ID); err != nil {
		t.Fatal(err)
	}

	waitStreams := func(want int64, limit time.Duration) time.Duration {
		t.Helper()
		start := time.Now()
		for m.sseActive.Load() != want {
			if time.Since(start) > limit {
				t.Fatalf("%d streams open after %v, want %d", m.sseActive.Load(), limit, want)
			}
			time.Sleep(10 * time.Millisecond)
		}
		return time.Since(start)
	}
	waitStreams(1, 5*time.Second)
	if took := waitStreams(0, sseWriteTimeout+20*time.Second); took < sseWriteTimeout {
		t.Errorf("stream ended after %v, before a %v write deadline could expire", took, sseWriteTimeout)
	}
	// The server hung up: reading out what the buffers held ends in EOF
	// (or a reset) rather than blocking.
	waitClosed(t, conn, 5*time.Second)
}
