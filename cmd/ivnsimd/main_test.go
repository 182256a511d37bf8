package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestStalledHeaderClientDisconnected shows the daemon's server cuts off
// a client that opens a connection and never finishes its request
// header, once readHeaderTimeout passes, instead of holding the
// connection open forever.
func TestStalledHeaderClientDisconnected(t *testing.T) {
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
