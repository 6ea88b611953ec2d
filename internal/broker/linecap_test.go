package broker

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestServerLineCap: a client that sends an endless line without '\n'
// gets -ERR and a closed connection instead of the server buffering it
// all, and the failed read costs under 2*MaxPayload bytes of allocation.
func TestServerLineCap(t *testing.T) { testLineCap(t, "") }

// TestRouteLineCap is TestServerLineCap for a peer broker that upgraded
// its connection to a route.
func TestRouteLineCap(t *testing.T) { testLineCap(t, "ROUTE peer-under-test -\r\n") }

func testLineCap(t *testing.T, prelude string) {
	srv := NewServer(WithServerID("srv-under-test"))
	defer srv.Shutdown()
	server, client := net.Pipe()
	defer client.Close()
	if srv.startClient(server) == nil {
		t.Fatal("startClient refused pipe")
	}
	lines := make(chan string, 16) // the few replies the exchange provokes
	go func() {
		defer close(lines)
		r := bufio.NewReader(client)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			lines <- strings.TrimRight(line, "\r\n")
		}
	}()
	next := func() (string, bool) {
		select {
		case line, ok := <-lines:
			return line, ok
		case <-time.After(5 * time.Second):
			t.Fatal("no reply from the server")
			return "", false
		}
	}
	// One clean round trip first, so the reader's buffers exist before
	// the measurement.
	if _, err := client.Write([]byte(prelude + "PING\r\n")); err != nil {
		t.Fatal(err)
	}
	for {
		line, ok := next()
		if !ok {
			t.Fatal("connection closed before PONG")
		}
		if line == "PONG" {
			break
		}
	}
	junk := bytes.Repeat([]byte{'x'}, 4<<20)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	go client.Write(junk) // fails once the server closes
	var replies []string
	for {
		line, ok := next()
		if !ok {
			break // closed
		}
		if line != "PING" { // a route's heartbeat may interleave
			replies = append(replies, line)
		}
	}
	runtime.ReadMemStats(&m1)
	if len(replies) != 1 || replies[0] != "-ERR control line too long" {
		t.Errorf("replies to an unterminated 4 MiB line: %q, want one -ERR", replies)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= 2*MaxPayload {
		t.Errorf("reading the over-long line allocated %d bytes, want < %d", grew, 2*MaxPayload)
	}
}
