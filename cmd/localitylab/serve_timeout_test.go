package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"graphlocality/internal/runctl"
	"graphlocality/internal/serve"
)

// startHTTP serves h on a loopback listener through newHTTPServer, after
// tune has shortened its timeouts, and returns the base address.
func startHTTP(t *testing.T, h http.Handler, tune func(*http.Server)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(h)
	tune(hs)
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return ln.Addr().String()
}

// TestServeClosesSlowlorisHeader checks the daemon's server sets its read
// and idle timeouts (and no WriteTimeout, so synchronous jobs can wait),
// then opens a connection, sends half a request header and never
// finishes it: the server must close the connection once
// ReadHeaderTimeout passes instead of holding it forever.
func TestServeClosesSlowlorisHeader(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 || hs.WriteTimeout != 0 {
		t.Fatalf("timeouts = header %v, read %v, idle %v, write %v; want the first three set, write unset",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout, hs.WriteTimeout)
	}
	addr := startHTTP(t, http.NotFoundHandler(), func(hs *http.Server) {
		hs.ReadHeaderTimeout = 100 * time.Millisecond
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/jobs HTTP/1.1\r\nHost: localityd\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := conn.Read(make([]byte, 512))
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server still holds a connection whose header never finished")
	}
	if err == nil {
		t.Fatalf("server answered an unfinished header with %d bytes instead of closing", n)
	}
}

// TestServeSyncWaitOutlivesReadTimeout holds a synchronous job past the
// server's ReadTimeout: the request was read long before, so the job must
// still complete rather than be canceled when the read deadline fires.
func TestServeSyncWaitOutlivesReadTimeout(t *testing.T) {
	remove := runctl.Inject(serve.PointJobRun, runctl.Failpoint{
		Mode: runctl.FailHang, Times: 1, HangFor: 600 * time.Millisecond,
	})
	defer remove()
	srv := serve.New(serve.Config{Workers: 1})
	defer srv.Close()
	addr := startHTTP(t, srv.Handler(), func(hs *http.Server) {
		hs.ReadTimeout = 150 * time.Millisecond
	})
	resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"metrics","graph":{"kind":"er","scale":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync job across ReadTimeout = %d, want 200 (body %s)", resp.StatusCode, body)
	}
}
