package broker

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// The client tests script the broker side by hand over net.Pipe, so what
// is checked is exactly the bytes the client writes and how it parses
// the bytes it is given.

// scriptedPeer returns a client on one end of a pipe and the raw peer
// end. Unless the test reads the peer itself, the client's writes go
// nowhere: a pipe write blocks until the other end reads.
func scriptedPeer(t testing.TB) (*Client, net.Conn) {
	t.Helper()
	conn, peer := net.Pipe()
	c, err := NewClient(conn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		peer.Close()
		c.Close()
	})
	return c, peer
}

// drainPeer discards everything the client writes and reports each PING
// line on pings (dropped when full).
func drainPeer(peer net.Conn, pings chan<- struct{}) {
	r := bufio.NewReader(peer)
	for {
		line, err := readLine(r)
		if err != nil {
			return
		}
		if line == "PING" {
			select {
			case pings <- struct{}{}:
			default:
			}
		}
	}
}

// msgStream encodes MSG frames for count deliveries, rotating over sids,
// with payload i being payloadFor(i, size(i)).
func msgStream(count int, sids []string, size func(int) int) []byte {
	var b []byte
	for i := 0; i < count; i++ {
		n := size(i)
		b = fmt.Appendf(b, "MSG alloc.subj %s %d\r\n", sids[i%len(sids)], n)
		b = append(b, payloadFor(i, n)...)
		b = append(b, '\r', '\n')
	}
	return b
}

func payloadFor(i, n int) []byte {
	p := make([]byte, n)
	for j := range p {
		p[j] = byte(i*31 + j)
	}
	return p
}

// subscribeAll subscribes handler under sids "1".."n" and returns them.
func subscribeAll(t testing.TB, c *Client, n int, handler Handler) []string {
	t.Helper()
	var sids []string
	for i := 0; i < n; i++ {
		s, err := c.Subscribe("alloc.subj", handler)
		if err != nil {
			t.Fatal(err)
		}
		sids = append(sids, s.sid)
	}
	return sids
}

// TestClientDeliveryAllocs pins the client's receive path: parsing MSG
// lines and carving 512 B payloads from slabs must stay under 0.1
// allocations per delivery.
func TestClientDeliveryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	c, peer := scriptedPeer(t)
	go io.Copy(io.Discard, peer)
	const total = 20000
	got := 0
	done := make(chan struct{})
	sids := subscribeAll(t, c, 4, func(Msg) {
		got++
		if got == total {
			close(done)
		}
	})
	size := func(int) int { return 512 }
	warm := msgStream(256, sids, size)
	stream := msgStream(total-256, sids, size)
	if _, err := peer.Write(warm); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := peer.Write(stream); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deliveries did not complete")
	}
	runtime.ReadMemStats(&m1)
	measured := total - 256
	perDelivery := float64(m1.Mallocs-m0.Mallocs) / float64(measured)
	if perDelivery > 0.1 {
		t.Errorf("client receive path allocates %.3f per delivery, want < 0.1", perDelivery)
	}
}

// TestClientMsgOwnership checks that slab-carved payloads are the
// handler's own memory: kept payloads survive later deliveries, and
// appending to one does not overwrite its neighbour in the slab.
func TestClientMsgOwnership(t *testing.T) {
	c, peer := scriptedPeer(t)
	go io.Copy(io.Discard, peer)
	const keep, more = 500, 10000
	size := func(i int) int {
		if i%97 == 0 {
			return clientSlabMax + 1 + i%13 // own allocation
		}
		return 1 + (i*37)%600
	}
	var kept [][]byte
	done := make(chan struct{})
	sids := subscribeAll(t, c, 3, func(m Msg) {
		kept = append(kept, m.Data)
		if len(kept) == keep {
			kept[keep/2] = append(kept[keep/2], "tail"...)
		}
		if len(kept) == keep+more {
			close(done)
		}
	})
	if _, err := peer.Write(msgStream(keep+more, sids, size)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deliveries did not complete")
	}
	for i, got := range kept {
		want := payloadFor(i, size(i))
		if i == keep/2 {
			want = append(want, "tail"...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("kept payload %d changed after later deliveries", i)
		}
	}
}

// TestClientLineCap: a peer that sends an endless line without '\n'
// makes the reader fail instead of buffering it all, and the failed
// read costs under 2*MaxPayload bytes of allocation.
func TestClientLineCap(t *testing.T) {
	c, peer := scriptedPeer(t)
	pings := make(chan struct{}, 4)
	go drainPeer(peer, pings)
	// One clean round trip first, so the reader's buffers exist before
	// the measurement.
	flushed := make(chan error, 1)
	go func() { flushed <- c.Flush(5 * time.Second) }()
	<-pings
	if _, err := peer.Write([]byte("PONG\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{'x'}, 4<<20)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	go peer.Write(junk)
	err := c.Flush(10 * time.Second)
	runtime.ReadMemStats(&m1)
	if !errors.Is(err, errLineTooLong) {
		t.Fatalf("Flush after an unterminated 4 MiB line = %v, want %v", err, errLineTooLong)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= 2*MaxPayload {
		t.Errorf("reading the over-long line allocated %d bytes, want < %d", grew, 2*MaxPayload)
	}
}

// TestClientFrameOrder: with eight goroutines interleaving Publish,
// Subscribe, Unsubscribe and Flush on one client, the peer sees each
// goroutine's frames in call order, however the stream was split into
// writes.
func TestClientFrameOrder(t *testing.T) {
	c, peer := scriptedPeer(t)
	const workers, rounds = 8, 200
	var mu sync.Mutex
	seen := make(map[int][]string) // worker -> frames in arrival order
	go func() {
		r := bufio.NewReader(peer)
		owner := make(map[string][2]int) // sid -> worker, round
		var fields [8][]byte
		for {
			line, err := readLine(r)
			if err != nil {
				return
			}
			nf := splitFields([]byte(line), fields[:0])
			if len(nf) == 0 {
				continue
			}
			var w, k int
			var frame string
			switch string(nf[0]) {
			case "PING":
				peer.Write([]byte("PONG\r\n"))
				continue
			case "PUB":
				n, _ := strconv.Atoi(string(nf[2]))
				payload := make([]byte, n+2)
				if _, err := io.ReadFull(r, payload); err != nil {
					return
				}
				fmt.Sscanf(string(nf[1]), "o.%d", &w)
				k, _ = strconv.Atoi(string(payload[:n]))
				frame = "P"
			case "SUB":
				fmt.Sscanf(string(nf[1]), "o.%d.%d", &w, &k)
				owner[string(nf[2])] = [2]int{w, k}
				frame = "S"
			case "UNSUB":
				o := owner[string(nf[1])]
				w, k = o[0], o[1]
				frame = "U"
			default:
				continue
			}
			mu.Lock()
			seen[w] = append(seen[w], fmt.Sprintf("%s%d", frame, k))
			mu.Unlock()
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				if err := c.Publish(fmt.Sprintf("o.%d", w), []byte(strconv.Itoa(k))); err != nil {
					t.Error(err)
					return
				}
				s, err := c.Subscribe(fmt.Sprintf("o.%d.%d", w, k), func(Msg) {})
				if err != nil {
					t.Error(err)
					return
				}
				if err := s.Unsubscribe(); err != nil {
					t.Error(err)
					return
				}
				if k%25 == 0 {
					if err := c.Flush(5 * time.Second); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// The peer answers this PING only after parsing every frame before it.
	if err := c.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for w := 0; w < workers; w++ {
		var want []string
		for k := 0; k < rounds; k++ {
			want = append(want, fmt.Sprintf("P%d", k), fmt.Sprintf("S%d", k), fmt.Sprintf("U%d", k))
		}
		if got := seen[w]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("worker %d frames arrived as %v, want call order %v", w, got, want)
		}
	}
}

// TestClientCloseDelivers: frames still pending when Close is called
// reach the broker.
func TestClientCloseDelivers(t *testing.T) {
	srv := NewServer()
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	payload := make([]byte, 100)
	for i := 0; i < n; i++ {
		if err := c.Publish("close.delivers", payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().MsgsIn != n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.Stats().MsgsIn; got != n {
		t.Fatalf("MsgsIn = %d after Close, want %d", got, n)
	}
}

// TestClientCloseStalledPeer: Close returns promptly when the peer never
// reads, instead of blocking on the pending write.
func TestClientCloseStalledPeer(t *testing.T) {
	c, _ := scriptedPeer(t)
	for i := 0; i < 100; i++ {
		if err := c.Publish("stalled", make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on a peer that never reads")
	}
}

// TestClientStickyError: once the peer goes away, an outstanding Flush
// returns the failure before its timeout, and later calls return the
// same error.
func TestClientStickyError(t *testing.T) {
	c, peer := scriptedPeer(t)
	pings := make(chan struct{}, 1)
	go drainPeer(peer, pings)
	flushed := make(chan error, 1)
	go func() { flushed <- c.Flush(10 * time.Second) }()
	<-pings
	peer.Close()
	var err error
	select {
	case err = <-flushed:
	case <-time.After(2 * time.Second):
		t.Fatal("outstanding Flush did not return when the peer closed")
	}
	if err == nil || err == ErrClientClosed {
		t.Fatalf("Flush after peer close = %v, want the connection error", err)
	}
	if perr := c.Publish("after.close", []byte("x")); perr != err {
		t.Fatalf("Publish after failure = %v, want sticky %v", perr, err)
	}
	if _, serr := c.Subscribe("after.close", func(Msg) {}); serr != err {
		t.Fatalf("Subscribe after failure = %v, want sticky %v", serr, err)
	}
}

func BenchmarkClientPublish(b *testing.B) {
	c, peer := scriptedPeer(b)
	go io.Copy(io.Discard, peer)
	payload := make([]byte, 512)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Publish("bench.publish", payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClientDeliver(b *testing.B) {
	c, peer := scriptedPeer(b)
	go io.Copy(io.Discard, peer)
	const chunk = 1024
	rounds := (b.N + chunk - 1) / chunk
	got := 0
	done := make(chan struct{})
	sids := subscribeAll(b, c, 4, func(Msg) {
		got++
		if got == rounds*chunk {
			close(done)
		}
	})
	stream := msgStream(chunk, sids, func(int) int { return 512 })
	b.SetBytes(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < rounds; i++ {
		if _, err := peer.Write(stream); err != nil {
			b.Fatal(err)
		}
	}
	<-done
}
