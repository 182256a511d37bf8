package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"ivn/internal/engine"
	"ivn/internal/ivnsim/runspec"
	"ivn/internal/service"
)

// asCommandEnv, set in a test binary's environment, makes TestMain run
// the daemon on the binary's arguments instead of the tests, so a test
// can start the real daemon as a child process and signal it directly.
const asCommandEnv = "IVNSIMD_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(asCommandEnv) != "" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// TestStalledHeaderClientDisconnected shows the daemon's server cuts off
// a client that opens a connection and never finishes its request
// header, once readHeaderTimeout passes, instead of holding the
// connection open forever.
func TestStalledHeaderClientDisconnected(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(http.NotFoundHandler())
	served := make(chan error, 1)
	//ivn:allow goroutinehygiene the server under test runs beside the client; Serve's return is joined through served below
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A header with no terminating blank line: the server must keep
	// waiting for the rest until the timeout.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: localhost\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server closes the connection without a response: the read
	// ends at EOF, with no bytes.
	data, err := io.ReadAll(conn)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("connection still open %v after a stalled header: %v", elapsed, err)
	}
	if len(data) != 0 {
		t.Fatalf("server answered an unfinished header with %q", data)
	}
	if elapsed < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the %v header timeout", elapsed, readHeaderTimeout)
	}
}

// TestStalledBodyClientDisconnected shows the daemon's server cuts off a
// client that sends a complete header and then stalls partway through
// the body it declared, once readTimeout passes: the handler reading the
// body gets an error instead of blocking, and the connection is answered
// or closed instead of held open forever.
func TestStalledBodyClientDisconnected(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the read timeout")
	}
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan error, 1)
	srv := newServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, err := io.ReadAll(r.Body)
		read <- err
		if err != nil {
			http.Error(w, "read body", http.StatusBadRequest)
		}
	}))
	served := make(chan error, 1)
	//ivn:allow goroutinehygiene the server under test runs beside the client; Serve's return is joined through served below
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		_ = srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A 64-byte body declared, 10 bytes sent, then nothing.
	const req = "POST /v1/runs HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: 64\r\n\r\n"
	if _, err := io.WriteString(conn, req+`{"experime`); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	limit := readTimeout + 10*time.Second
	select {
	case err := <-read:
		if err == nil {
			t.Fatal("the handler read a complete body from 10 of 64 bytes")
		}
	case <-time.After(limit):
		t.Fatalf("the handler is still reading the body %v after the client stalled", limit)
	}
	if err := conn.SetReadDeadline(start.Add(limit)); err != nil {
		t.Fatal(err)
	}
	// Whatever the server answers, it must then close the connection:
	// the read ends at EOF.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection still open %v after a stalled body: %v", time.Since(start), err)
	}
	if elapsed := time.Since(start); elapsed < readTimeout/2 {
		t.Fatalf("connection cut after %v, before the %v read timeout", elapsed, readTimeout)
	}
}

// getBody fetches url and returns its body, failing the test unless the
// answer is 200.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v %s", url, resp.StatusCode, err, body)
	}
	return body
}

// TestDaemonServesAndDrainsOnSIGTERM runs the daemon as a child process
// on an ephemeral port: its stdout ready line names the bound address, a
// submitted run's /result is byte-identical to what the shared pipeline
// renders for `ivnsim -json`, and SIGTERM drains it to exit status 0.
func TestDaemonServesAndDrainsOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the daemon as a child process")
	}
	t.Parallel()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), asCommandEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// A daemon the test leaves behind, or one that hangs, is killed; the
	// kill also ends a read blocked on its stdout.
	watchdog := time.AfterFunc(time.Minute, func() { _ = cmd.Process.Kill() })
	t.Cleanup(func() {
		watchdog.Stop()
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
		if t.Failed() {
			t.Logf("daemon stderr:\n%s", stderr.Bytes())
		}
	})

	line, err := bufio.NewReader(stdout).ReadString('\n')
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "ivnsimd: listening on ")
	if !ok {
		t.Fatalf("ready line %q (%v)", line, err)
	}
	base := "http://" + addr

	spec := runspec.Spec{Experiment: "fig9", Seed: 2, Quick: true}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st service.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/runs: %d %v", resp.StatusCode, err)
	}
	for st.State != service.StateDone {
		if st.State == service.StateFailed || st.State == service.StateCancelled {
			t.Fatalf("run %s ended %s: %s", st.ID, st.State, st.Error)
		}
		time.Sleep(20 * time.Millisecond)
		if err := json.Unmarshal(getBody(t, base+"/v1/runs/"+st.ID), &st); err != nil {
			t.Fatal(err)
		}
	}

	res, _, err := runspec.Run(context.Background(), engine.Limits{}, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := engine.RenderJSON(res, &want); err != nil {
		t.Fatal(err)
	}
	if got := getBody(t, base+"/v1/runs/"+st.ID+"/result"); !bytes.Equal(got, want.Bytes()) {
		t.Errorf("served result differs from the CLI's -json bytes:\n%s\nwant:\n%s", got, want.Bytes())
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v", err)
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Fatal("no clean drain on stderr")
	}
}
