package broker

import (
	"bytes"
	"io"
	"net"
	"strconv"
	"testing"
	"time"
)

// FuzzMatch asserts subject matching is total and that exact subjects
// always match themselves when valid.
func FuzzMatch(f *testing.F) {
	f.Add("a.b.c", "a.*.c")
	f.Add("x", ">")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, subject, pattern string) {
		_ = Match(subject, pattern) // must not panic
		if ValidateSubject(subject) == nil && !Match(subject, subject) {
			t.Fatalf("valid subject %q does not match itself", subject)
		}
	})
}

// FuzzServerCommand feeds arbitrary bytes to a live server's control-line
// parser over an in-memory connection: SUB/UNSUB/PUB/PING framing,
// oversize and truncated payloads, interleaved garbage. The server must
// neither panic nor wedge — every iteration has to reach clean teardown.
func FuzzServerCommand(f *testing.F) {
	f.Add([]byte("CONNECT x\r\nSUB a.b 1\r\nPUB a.b 2\r\nhi\r\nPING\r\n"))
	f.Add([]byte("SUB jobs.* workers 7\r\nPUB jobs.detect 9\r\npayload-x\r\nUNSUB 7\r\n"))
	f.Add([]byte("PUB a 1048577\r\n"))                 // oversize payload
	f.Add([]byte("PUB a notanumber\r\n"))              // unframeable size
	f.Add([]byte("PUB a 10\r\nshort"))                 // truncated payload
	f.Add([]byte("PUB wild.* 2\r\nhi\r\n"))            // wildcard publish
	f.Add([]byte("SUB a.>.b 1\r\nUNSUB\r\nBOGUS\r\n")) // bad pattern + arity
	f.Add([]byte("pub a 1\r\nx\r\nping\r\n"))          // lower-case commands
	f.Add([]byte("\r\n\r\n  \t \r\nPING\r\n"))
	f.Add([]byte("PUB a 3\r\nxy"))
	// Batched-ingest framing (PR 9): multiple pipelined PUBs in one
	// segment, batches split by interleaved control commands, a zero-byte
	// payload inside a batch, and a batch whose tail is truncated
	// mid-payload (flush-before-blocking path).
	f.Add([]byte("SUB b 1\r\nPUB b 2\r\nhi\r\nPUB b 3\r\nabc\r\nPUB b 0\r\n\r\nPING\r\n"))
	f.Add([]byte("PUB a 1\r\nx\r\nPUB a 1\r\ny\r\nSUB a 9\r\nPUB a 1\r\nz\r\nUNSUB 9\r\n"))
	f.Add([]byte("PUB a 1\r\nx\r\nPUB a 5\r\nab"))
	f.Add([]byte("PUB a 2\r\nok\r\nPUB .bad. 1\r\nq\r\nPUB a 2\r\nok\r\n"))
	f.Add(append(append([]byte("PUB big 2000\r\n"), bytes.Repeat([]byte{'z'}, 2000)...), []byte("\r\nPUB a 1\r\nw\r\nPING\r\n")...))
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewServer(WithSeed(1), WithShards(2), WithWriteQueue(64, 1<<20))
		defer srv.Shutdown()
		server, client := net.Pipe()
		if srv.startClient(server) == nil {
			t.Fatal("startClient refused pipe")
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			buf := make([]byte, 4096)
			for {
				if _, err := client.Read(buf); err != nil {
					return
				}
			}
		}()
		// The server may stop reading mid-write (it drops the connection
		// on unframeable input); the deadline keeps the pipe write from
		// wedging the fuzzer.
		client.SetWriteDeadline(time.Now().Add(2 * time.Second))
		_, _ = client.Write(data)
		client.Close()
		select {
		case <-drained:
		case <-time.After(5 * time.Second):
			t.Fatal("server never closed the connection")
		}
	})
}

// FuzzRouteCommand feeds arbitrary bytes to the inter-broker protocol
// parser: a connection that upgrades via ROUTE and then speaks
// RS+/RS-/RMSG/RINFO/PING, including malformed handshakes, truncated
// origin-tagged payloads, self-origin frames (dedup suppression), and
// interest churn. The server must neither panic nor wedge, and teardown
// must withdraw whatever interest the fuzzed peer installed.
func FuzzRouteCommand(f *testing.F) {
	f.Add([]byte("ROUTE peer1 -\r\nRS+ a.b\r\nRMSG a.b peer1 2\r\nhi\r\nRS- a.b\r\nPING\r\n"))
	f.Add([]byte("ROUTE peer1 127.0.0.1:0\r\nRINFO peer2 127.0.0.1:1\r\nPONG\r\n"))
	f.Add([]byte("ROUTE fuzz -\r\nRS+ jobs.* workers\r\nRMSG jobs.x fuzz 3 workers\r\nabc\r\n"))
	f.Add([]byte("ROUTE fuzz -\r\nRMSG a fuzz notanumber\r\n"))                            // unframeable size
	f.Add([]byte("ROUTE fuzz -\r\nRMSG a fuzz 10\r\nshort"))                               // truncated payload
	f.Add([]byte("ROUTE fuzz -\r\nRMSG .bad. fuzz 1\r\nq\r\nPING\r\n"))                    // invalid subject
	f.Add([]byte("ROUTE srv-under-test -\r\nRMSG a srv-under-test 1\r\nx\r\n"))            // self-origin echo
	f.Add([]byte("ROUTE fuzz -\r\nROUTE fuzz2 -\r\nRS+ a\r\nRS+ a\r\nRS- a\r\nRS- a\r\n")) // dup handshake + idempotence
	f.Add([]byte("ROUTE\r\n"))                                                             // malformed handshake
	f.Add([]byte("SUB a 1\r\nROUTE fuzz -\r\nRS+ a\r\n"))                                  // client subs then upgrade
	f.Add([]byte("route fuzz -\r\nrs+ a.>\r\nrmsg a.x fuzz 0\r\n\r\nBOGUS\r\n"))
	f.Add([]byte("ROUTE fuzz -\r\nRS+ a..b\r\nRS+\r\nRMSG a fuzz\r\n")) // bad pattern + arity
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewServer(WithSeed(1), WithShards(2), WithWriteQueue(64, 1<<20),
			WithServerID("srv-under-test"))
		defer srv.Shutdown()
		server, client := net.Pipe()
		if srv.startClient(server) == nil {
			t.Fatal("startClient refused pipe")
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			buf := make([]byte, 4096)
			for {
				if _, err := client.Read(buf); err != nil {
					return
				}
			}
		}()
		client.SetWriteDeadline(time.Now().Add(2 * time.Second))
		_, _ = client.Write(data)
		client.Close()
		select {
		case <-drained:
		case <-time.After(5 * time.Second):
			t.Fatal("server never closed the route connection")
		}
		// Teardown must leave no trace of the fuzzed peer: its interest
		// withdrawn and the route deregistered.
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := srv.Stats()
			if st.Routes == 0 && st.RemoteSubs == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("fuzzed route left state behind: %d routes, %d remote subs",
					st.Routes, st.RemoteSubs)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// FuzzValidatePattern asserts validation is total and consistent: every
// valid publish subject is also a valid subscription pattern.
func FuzzValidatePattern(f *testing.F) {
	f.Add("a.b")
	f.Add("a.>")
	f.Add("*.*")
	f.Fuzz(func(t *testing.T, s string) {
		subErr := ValidateSubject(s)
		patErr := ValidatePattern(s)
		if subErr == nil && patErr != nil {
			t.Fatalf("%q is a valid subject but invalid pattern: %v", s, patErr)
		}
	})
}

// FuzzClientRead feeds arbitrary server bytes to a Client's reader. Every
// delivery must match what an independent parse of the input announces
// (sid, subject, and payload of exactly the announced length), and the
// reader must stop at a malformed size, a missing payload terminator or
// an over-long line without waiting for the peer to hang up.
func FuzzClientRead(f *testing.F) {
	f.Add([]byte("MSG a 1 3\r\nabc\r\nPONG\r\n"))
	f.Add([]byte("MSG a.b 2 0\r\n\r\nMSG a.b 1 2\nhi\n"))
	f.Add([]byte("MSG a 1 x\r\nMSG a 1 1\r\nq\r\n"))        // malformed size
	f.Add([]byte("MSG a 1 1048577\r\n"))                    // over MaxPayload
	f.Add([]byte("MSG a 1 2\r\nhiX\r\n"))                   // bad terminator
	f.Add([]byte("MSG a 3 2\r\nno\r\nMSG b 2 2\r\nok\r\n")) // unknown sid skipped
	f.Add([]byte("-ERR bad\r\nMSG a 1\r\n\t MSG \t c 2  4 \r\nfour\r\n"))
	f.Add([]byte("MSG a 1 5\r\nshort")) // truncated payload
	f.Fuzz(func(t *testing.T, data []byte) {
		conn, peer := net.Pipe()
		c, err := NewClient(conn)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		go io.Copy(io.Discard, peer)
		type delivery struct{ sid, subject, data string }
		var got []delivery
		for _, sid := range []string{"1", "2"} {
			if _, err := c.Subscribe("a", func(m Msg) {
				got = append(got, delivery{sid, m.Subject, string(m.Data)})
			}); err != nil {
				t.Fatal(err)
			}
		}
		var want []delivery
		stopped := false // the input breaks framing: the reader must quit
		for rest := data; ; {
			i := bytes.IndexByte(rest, '\n')
			if i < 0 {
				break
			}
			if i+1 > MaxPayload {
				stopped = true
				break
			}
			line := bytes.TrimSuffix(rest[:i], []byte("\r"))
			rest = rest[i+1:]
			f := bytes.FieldsFunc(line, func(r rune) bool { return r == ' ' || r == '\t' })
			if len(f) != 4 || string(f[0]) != "MSG" {
				continue
			}
			n, err := strconv.Atoi(string(f[3]))
			if len(f[3]) > 8 || bytes.ContainsAny(f[3], "+-") || err != nil || n > MaxPayload {
				stopped = true
				break
			}
			if len(rest) < n+1 {
				break
			}
			payload := rest[:n]
			rest = rest[n:]
			if rest[0] == '\r' {
				rest = rest[1:]
			}
			if len(rest) == 0 {
				break
			}
			if rest[0] != '\n' {
				stopped = true
				break
			}
			rest = rest[1:]
			if sid := string(f[2]); sid == "1" || sid == "2" {
				want = append(want, delivery{sid, string(f[1]), string(payload)})
			}
		}
		peer.SetWriteDeadline(time.Now().Add(5 * time.Second))
		peer.Write(data)
		if !stopped {
			peer.Close()
		}
		select {
		case <-c.done:
		case <-time.After(5 * time.Second):
			t.Fatalf("reader still running (malformed input: %v)", stopped)
		}
		peer.Close()
		if len(got) != len(want) {
			t.Fatalf("%d deliveries, the input announces %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("delivery %d = %q, the input announces %q", i, got[i], want[i])
			}
		}
	})
}
