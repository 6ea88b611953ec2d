package broker

import (
	"bufio"
	"io"
	"net"
	"strconv"
	"testing"
	"time"
)

// The slow-consumer tests run the server over net.Pipe: a pipe has zero
// kernel buffering, so a peer that stops reading stalls the writer
// goroutine deterministically (no dependence on socket buffer sizes)
// and the outbound queue fills to exactly its configured bound.

// pipeClient attaches a raw in-memory connection to srv.
func pipeClient(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	server, client := net.Pipe()
	if srv.startClient(server) == nil {
		t.Fatal("startClient refused connection")
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// drainMsgs reads MSG frames from conn, sending each sequence payload to
// out, until the connection dies.
func drainMsgs(conn net.Conn, out chan<- string) {
	r := bufio.NewReader(conn)
	for {
		line, err := readLine(r)
		if err != nil {
			close(out)
			return
		}
		var fields [8][]byte
		nf := splitFields([]byte(line), fields[:0])
		if len(nf) != 4 || string(nf[0]) != "MSG" {
			continue
		}
		n, _ := strconv.Atoi(string(nf[3]))
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			close(out)
			return
		}
		if err := consumeCRLF(r); err != nil {
			close(out)
			return
		}
		out <- string(payload)
	}
}

// readLine is the allocating (string) variant of readLineSlice.
func readLine(r *bufio.Reader) (string, error) {
	line, err := readLineSlice(r, MaxPayload)
	return string(line), err
}

func waitSubs(t *testing.T, srv *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for srv.NumSubscriptions() != want {
		if time.Now().After(deadline) {
			t.Fatalf("NumSubscriptions = %d, want %d", srv.NumSubscriptions(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func mustWrite(t *testing.T, conn net.Conn, s string) {
	t.Helper()
	conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte(s)); err != nil {
		t.Fatalf("write %q: %v", s, err)
	}
}

// runSlowConsumer drives one stalled and one healthy subscriber on the
// same subject and returns the healthy subscriber's received payloads.
// Publishes are paced in chunks smaller than the queue bound and each
// chunk is awaited from the healthy side before the next one goes out:
// the healthy subscriber thus can never legitimately overflow, while
// the stalled one (whose writer is wedged on its first flush) overflows
// as soon as cumulative traffic passes its queue cap.
func runSlowConsumer(t *testing.T, srv *Server, total int) []string {
	t.Helper()
	stalled := pipeClient(t, srv)
	mustWrite(t, stalled, "SUB flood 1\r\n")
	waitSubs(t, srv, 1)

	healthy := pipeClient(t, srv)
	got := make(chan string, total)
	go drainMsgs(healthy, got)
	mustWrite(t, healthy, "SUB flood 2\r\n")
	waitSubs(t, srv, 2)

	pub := pipeClient(t, srv)
	const chunk = 8
	var msgs []string
	deadline := time.After(10 * time.Second)
	for base := 0; base < total; base += chunk {
		n := min(chunk, total-base)
		for i := base; i < base+n; i++ {
			seq := strconv.Itoa(i)
			mustWrite(t, pub, "PUB flood "+strconv.Itoa(len(seq))+"\r\n"+seq+"\r\n")
		}
		for want := 0; want < n; want++ {
			select {
			case m, ok := <-got:
				if !ok {
					t.Fatalf("healthy subscriber connection died after %d msgs", len(msgs))
				}
				msgs = append(msgs, m)
			case <-deadline:
				t.Fatalf("healthy subscriber got %d of %d msgs", len(msgs), total)
			}
		}
	}
	return msgs
}

func TestSlowConsumerDropDoesNotBlockHealthy(t *testing.T) {
	srv := NewServer(WithSeed(1), WithWriteQueue(16, 1<<20),
		WithSlowConsumerPolicy(SlowConsumerDrop))
	defer srv.Shutdown()

	const total = 200
	msgs := runSlowConsumer(t, srv, total)
	// Healthy subscriber got every message, in publish order.
	for i, m := range msgs {
		if m != strconv.Itoa(i) {
			t.Fatalf("msg %d = %q, out of order", i, m)
		}
	}
	// Counters bump just after the fan-out enqueues, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().MsgsIn != total && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := srv.Stats()
	if st.SlowConsumerDrops == 0 {
		t.Error("expected SlowConsumerDrops > 0 for the stalled subscriber")
	}
	if st.SlowConsumerDisconnects != 0 {
		t.Errorf("SlowConsumerDisconnects = %d under drop policy", st.SlowConsumerDisconnects)
	}
	if st.MsgsIn != total {
		t.Errorf("MsgsIn = %d, want %d", st.MsgsIn, total)
	}
	// The stalled client keeps its subscription under the drop policy.
	if n := srv.NumSubscriptions(); n != 2 {
		t.Errorf("NumSubscriptions = %d, want 2 (drop keeps the client)", n)
	}
}

func TestSlowConsumerDisconnectEvictsStalled(t *testing.T) {
	srv := NewServer(WithSeed(1), WithWriteQueue(16, 1<<20),
		WithSlowConsumerPolicy(SlowConsumerDisconnect))
	defer srv.Shutdown()

	const total = 200
	msgs := runSlowConsumer(t, srv, total)
	if len(msgs) != total {
		t.Fatalf("healthy got %d, want %d", len(msgs), total)
	}
	st := srv.Stats()
	if st.SlowConsumerDisconnects == 0 {
		t.Error("expected SlowConsumerDisconnects > 0")
	}
	// The stalled client's subscription is torn down after eviction.
	deadline := time.Now().Add(2 * time.Second)
	for srv.NumSubscriptions() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := srv.NumSubscriptions(); n != 1 {
		t.Errorf("NumSubscriptions = %d after eviction, want 1", n)
	}
}
