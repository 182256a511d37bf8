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
