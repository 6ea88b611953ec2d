package broker

// Inter-broker federation: routes, interest propagation, and membership.
//
// A route is a broker↔broker connection built on the same link substrate
// as a client connection (link.go). The mesh keeps a full-mesh, one-hop
// topology with three cooperating mechanisms:
//
//   - Interest propagation. Every local (pattern, queue) subscription is
//     refcounted in Server.localInterest; the 0→1 and 1→0 transitions
//     broadcast RS+/RS- to every route, and a newly registered route
//     receives the full dump. A peer's interest is installed in the
//     routing trie as ordinary serverSub entries with rt set, so
//     routeBatch sees local clients and remote brokers through one match
//     — a broker forwards a publish only to peers that proved interest.
//
//   - Origin-tagged forwarding with one-hop dedup. A forwarded message
//     (RMSG) carries the origin broker's server ID. The receiver delivers
//     it to local clients only — remote interests matched on the
//     receiving side are skipped — so a publish traverses at most one
//     inter-broker hop and reaches each subscriber exactly once in a
//     full mesh. An RMSG that echoes back carrying our own ID (a loop a
//     misconfigured topology would create) is dropped and counted in
//     DupsSuppressed. Queue groups stay exactly-once mesh-wide: the
//     origin broker picks one member treating each interested peer as a
//     candidate, and at most one peer receives the group's name in the
//     RMSG; that peer picks one local member.
//
//   - Gossip membership and failure detection. Route registration
//     exchanges RINFO <id> <addr> lines describing the rest of the mesh,
//     and a broker dials every advertised peer it has no route to — one
//     seed route is enough to join a full mesh. A monitor goroutine
//     PINGs every route each heartbeat interval and tears down routes
//     silent past the suspect bound; teardown withdraws the peer's
//     interest from the trie, so publishes stop being routed to a dead
//     broker within the detection bound. Dialed routes redial with
//     backoff, so a restarted broker rejoins by itself.
//
// Simultaneous dials (A dials B while B dials A) resolve without flapping:
// the connection dialed by the lexicographically higher server ID wins,
// evaluated identically on both sides.

import (
	"errors"
	"net"
	"strconv"
	"sync/atomic"
	"time"
)

const (
	defaultRouteHeartbeat = 500 * time.Millisecond
	defaultRouteSuspect   = 2 * time.Second

	routeDialTimeout = 2 * time.Second
	routeRedialMin   = 50 * time.Millisecond
	routeRedialMax   = 2 * time.Second
)

// route is one broker↔broker connection. The reader goroutine (routeLoop)
// owns every non-atomic field after registration; lastRecv is shared with
// the heartbeat monitor.
type route struct {
	ln         *link
	id         string // peer server ID (ROUTE handshake)
	addr       string // peer's advertised cluster address, "-" if none
	dialed     bool   // we initiated this connection
	registered bool
	dupLost    bool // lost the duplicate-route tie-break (or self-connect)
	lastRecv   atomic.Int64

	// The peer's propagated interest, installed in our routing trie.
	subs map[interestKey]*serverSub

	// Reader-goroutine scratch. RMSG header fields borrow the bufio
	// buffer, which the payload read refills — they are copied here
	// first. Queue names are recorded as spans into qArena because the
	// arena may reallocate while spans are being appended.
	subjBuf   []byte
	originBuf []byte
	qArena    []byte
	qSpans    []qspan
	localQ    []*serverSub
}

type qspan struct{ off, n int }

// dialedByHigher reports whether this connection was initiated by the
// mesh-wide tie-break winner for the (selfID, r.id) pair. Both sides of
// a duplicate compute the same answer, so exactly one connection
// survives a simultaneous dial.
func (r *route) dialedByHigher(selfID string) bool {
	if r.dialed {
		return selfID > r.id
	}
	return r.id > selfID
}

// sendRMsg enqueues one origin-tagged forwarded message. Routes always
// use the disconnect overflow policy: silently dropping inter-broker
// traffic would violate exactly-once delivery invisibly, while a
// disconnect is detected and repaired by the redial/gossip machinery.
func (r *route) sendRMsg(subject []byte, origin string, queues []string, pb *payloadRef) sendResult {
	return r.ln.enqueueMsg(encodeRMsgHeader(subject, origin, len(pb.data), queues), pb, SlowConsumerDisconnect)
}

// encodeRMsgHeader appends "RMSG <subject> <origin> <n> [queue...]\r\n"
// to a pooled buffer. Queue names trail the fixed fields so the parser
// takes everything after the size as group names.
func encodeRMsgHeader(subject []byte, origin string, n int, queues []string) *headerBuf {
	h := getHeaderBuf()
	b := h.b
	b = append(b, "RMSG "...)
	b = append(b, subject...)
	b = append(b, ' ')
	b = append(b, origin...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(n), 10)
	for _, q := range queues {
		b = append(b, ' ')
		b = append(b, q...)
	}
	b = append(b, '\r', '\n')
	h.b = b
	return h
}

// AddRoute asks the broker to establish and maintain a route to the
// broker listening at addr (its client or cluster listener — both speak
// the ROUTE handshake). The dial retries with backoff until the server
// shuts down, so routes given before peers are up, and routes to peers
// that restart, converge on their own. Idempotent per address.
func (s *Server) AddRoute(addr string) {
	select {
	case <-s.quit:
		return
	default:
	}
	s.fedMu.Lock()
	if s.dialing[addr] {
		s.fedMu.Unlock()
		return
	}
	s.dialing[addr] = true
	s.fedMu.Unlock()
	go s.dialRoute(addr)
}

// dialRoute is the persistent dialer for one route target.
func (s *Server) dialRoute(addr string) {
	defer func() {
		s.fedMu.Lock()
		delete(s.dialing, addr)
		s.fedMu.Unlock()
	}()
	backoff := routeRedialMin
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", addr, routeDialTimeout)
		if err == nil {
			l := &link{}
			l.init(conn, s.opts.queueFrames, s.opts.queueBytes, s.adm)
			l.startWriter(s.opts.legacy, s.adm)
			r := &route{ln: l, dialed: true, addr: "-", subs: make(map[interestKey]*serverSub)}
			r.lastRecv.Store(time.Now().UnixNano())
			l.sendLine("ROUTE " + s.id + " " + s.opts.clusterAddr)
			stop := make(chan struct{})
			go func() {
				select {
				case <-s.quit:
					conn.Close()
				case <-stop:
				}
			}()
			s.routeLoop(r) // returns when the route dies
			close(stop)
			if r.dupLost {
				// The mesh already has a live route to this peer (or the
				// address is our own): park at max backoff so a later
				// failure of the winning route is still repaired.
				backoff = routeRedialMax
			} else if r.registered {
				backoff = routeRedialMin // a real route died: redial promptly
			}
		}
		select {
		case <-s.quit:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > routeRedialMax {
			backoff = routeRedialMax
		}
	}
}

// acceptRoute upgrades an accepted connection into a route after its
// ROUTE <id> [addr] line (fields). It returns when the route dies; the
// caller's deferred client teardown closes the shared link.
func (s *Server) acceptRoute(c *serverClient, fields [][]byte) {
	if len(fields) < 2 || len(fields) > 3 || len(fields[1]) == 0 {
		c.sendErr("ROUTE requires <serverID> [clusterAddr]")
		return
	}
	s.clearSubs(c) // a route holds no client subscriptions
	r := &route{ln: &c.link, addr: "-", subs: make(map[interestKey]*serverSub)}
	r.id = string(fields[1])
	if len(fields) == 3 && len(fields[2]) > 0 {
		r.addr = string(fields[2])
	}
	r.lastRecv.Store(time.Now().UnixNano())
	if !s.registerRoute(r) {
		c.sendErr("duplicate route")
		return
	}
	r.ln.sendLine("ROUTE " + s.id + " " + s.opts.clusterAddr) // our half of the handshake
	s.routeLoop(r)
}

// registerRoute installs r in the route table, resolving duplicate
// routes to the same peer by the dialed-by-higher-ID rule. On success
// the new peer receives our full local-interest dump and the mesh
// gossips the new member (RINFO) in both directions.
func (s *Server) registerRoute(r *route) bool {
	st := &s.stats
	s.fedMu.Lock()
	if r.id == s.id || r.id == "" {
		s.fedMu.Unlock()
		r.dupLost = true
		return false
	}
	if ex, ok := s.routes[r.id]; ok {
		if ex.dialedByHigher(s.id) || !r.dialedByHigher(s.id) {
			s.fedMu.Unlock()
			r.dupLost = true
			return false
		}
		// The new connection wins the tie-break: evict the old one. Its
		// teardown skips the table delete because the entry now points
		// at r.
		ex.ln.conn.Close()
	}
	s.routes[r.id] = r
	r.registered = true
	st.write(func() { st.routes.Store(uint64(len(s.routes))) })
	for k, n := range s.localInterest {
		if n > 0 {
			r.ln.sendLine(rsLine("RS+", k))
		}
	}
	for id, other := range s.routes {
		if other == r {
			continue
		}
		if routableAddr(other.addr) {
			r.ln.sendLine("RINFO " + id + " " + other.addr)
		}
		if routableAddr(r.addr) {
			other.ln.sendLine("RINFO " + r.id + " " + r.addr)
		}
	}
	s.ensureMonitor()
	s.fedMu.Unlock()
	return true
}

func routableAddr(addr string) bool { return addr != "" && addr != "-" }

// routeLoop is the route's command loop; the reader goroutine stays in
// it until the connection dies, then teardown withdraws the peer's
// interest. For dialed routes the peer's ROUTE reply arrives here as the
// first line and completes registration.
func (s *Server) routeLoop(r *route) {
	defer s.teardownRoute(r)
	var fields [16][]byte
	for {
		line, err := r.ln.readCommand()
		if err != nil {
			return
		}
		r.lastRecv.Store(time.Now().UnixNano())
		nf := splitFields(line, fields[:0])
		if len(nf) == 0 {
			continue
		}
		cmd := nf[0]
		switch {
		case asciiFold(cmd, "RMSG"):
			if err := s.handleRMsg(r, nf); err != nil {
				return
			}
		case asciiFold(cmd, "RS+"):
			s.handleRSub(r, nf, true)
		case asciiFold(cmd, "RS-"):
			s.handleRSub(r, nf, false)
		case asciiFold(cmd, "PING"):
			r.ln.sendLine("PONG")
		case asciiFold(cmd, "PONG"):
			// lastRecv refresh above is the whole point
		case asciiFold(cmd, "RINFO"):
			s.handleRInfo(nf)
		case asciiFold(cmd, "ROUTE"):
			if r.registered {
				continue // duplicate handshake line: ignore
			}
			if len(nf) < 2 || len(nf) > 3 || len(nf[1]) == 0 {
				r.ln.sendErr("ROUTE requires <serverID> [clusterAddr]")
				return
			}
			r.id = string(nf[1])
			if len(nf) == 3 && len(nf[2]) > 0 {
				r.addr = string(nf[2])
			}
			if !s.registerRoute(r) {
				return
			}
		case asciiFold(cmd, "-ERR"):
			if !r.registered {
				// Handshake rejected (duplicate route): park the redial.
				r.dupLost = true
				return
			}
		default:
			r.ln.sendErr("unknown route command " + string(cmd))
		}
	}
}

// teardownRoute deregisters r and withdraws the peer's interest from
// the routing trie, so publishes stop being forwarded to a dead peer
// the moment its failure is detected.
func (s *Server) teardownRoute(r *route) {
	r.ln.out.close() // writer drains, flushes, closes the conn
	st := &s.stats
	s.fedMu.Lock()
	if r.registered && s.routes[r.id] == r {
		delete(s.routes, r.id)
		st.write(func() { st.routes.Store(uint64(len(s.routes))) })
	}
	s.fedMu.Unlock()
	if len(r.subs) == 0 {
		return
	}
	for _, sub := range r.subs {
		s.eachPatternShard(sub.pattern, func(sh *shard) {
			sh.remove(sub)
		})
	}
	n := uint64(len(r.subs))
	st.write(func() { st.remoteSubs.Add(^(n - 1)) })
	r.subs = nil
}

// handleRSub applies one RS+ (add=true) or RS- interest line from the
// peer. Interest entries are idempotent per (pattern, queue): the peer
// refcounts on its side and only sends edge transitions.
func (s *Server) handleRSub(r *route, fields [][]byte, add bool) {
	var pattern, queue string
	switch len(fields) {
	case 2:
		pattern = string(fields[1])
	case 3:
		pattern, queue = string(fields[1]), string(fields[2])
	default:
		r.ln.sendErr("RS requires <pattern> [queue]")
		return
	}
	if err := ValidatePattern(pattern); err != nil {
		r.ln.sendErr(err.Error())
		return
	}
	k := interestKey{pattern: pattern, queue: queue}
	st := &s.stats
	if add {
		if _, ok := r.subs[k]; ok {
			return
		}
		sub := &serverSub{rt: r, pattern: pattern, queue: queue}
		r.subs[k] = sub
		s.eachPatternShard(pattern, func(sh *shard) {
			sh.insert(sub)
		})
		st.write(func() { st.remoteSubs.Add(1) })
		return
	}
	sub, ok := r.subs[k]
	if !ok {
		return
	}
	delete(r.subs, k)
	s.eachPatternShard(pattern, func(sh *shard) {
		sh.remove(sub)
	})
	st.write(func() { st.remoteSubs.Add(^uint64(0)) })
}

// handleRInfo reacts to gossip about a mesh member: dial any advertised
// peer we have no route to. Duplicate dials resolve via the tie-break.
func (s *Server) handleRInfo(fields [][]byte) {
	if len(fields) != 3 {
		return
	}
	id, addr := string(fields[1]), string(fields[2])
	if id == "" || id == s.id || !routableAddr(addr) {
		return
	}
	s.fedMu.Lock()
	_, have := s.routes[id]
	s.fedMu.Unlock()
	if !have {
		s.AddRoute(addr)
	}
}

// handleRMsg parses one forwarded message and delivers it locally. A
// returned error means the stream is unframeable and tears the route
// down.
func (s *Server) handleRMsg(r *route, fields [][]byte) error {
	if len(fields) < 4 {
		r.ln.sendErr("RMSG requires <subject> <origin> <nbytes>")
		return errors.New("broker: malformed RMSG")
	}
	n, ok := parseSize(fields[3])
	if !ok {
		r.ln.sendErr("bad payload size")
		return errors.New("broker: bad payload size")
	}
	// The header fields borrow the reader's buffer, which the payload
	// read below refills — copy them into route-owned scratch first.
	r.subjBuf = append(r.subjBuf[:0], fields[1]...)
	r.originBuf = append(r.originBuf[:0], fields[2]...)
	r.qArena = r.qArena[:0]
	r.qSpans = r.qSpans[:0]
	for _, q := range fields[4:] {
		off := len(r.qArena)
		r.qArena = append(r.qArena, q...)
		r.qSpans = append(r.qSpans, qspan{off: off, n: len(q)})
	}
	pb, err := r.ln.readPayload(n)
	if err != nil {
		return err
	}
	if !validSubjectBytes(r.subjBuf) {
		pb.release()
		r.ln.sendErr("invalid subject")
		return nil
	}
	s.routeInbound(r, pb)
	return nil
}

// routeInbound delivers one forwarded message to local subscribers.
// This is the receiving half of the one-hop rule: remote interests in
// the match result are skipped (never re-forwarded), and a message
// carrying our own origin tag is dropped entirely — together they make
// mesh delivery exactly-once and loop-free. For each queue-group name
// listed in the RMSG, the members of every matching group with that
// name are pooled and one local member is chosen: the origin broker
// already picked this broker as the group's mesh-wide winner.
func (s *Server) routeInbound(r *route, pb *payloadRef) {
	st := &s.stats
	if string(r.originBuf) == s.id {
		pb.release()
		st.write(func() { st.dupsSuppressed.Add(1) })
		return
	}
	subj := r.subjBuf
	plen := uint64(len(pb.data))
	var msgsOut, bytesOut, drops, discs uint64
	sh := s.shards[shardIndexBytes(subj, len(s.shards))]
	sh.mu.Lock()
	rs := sh.matchBytes(subj)
	for _, sub := range rs.plain {
		if sub.rt != nil {
			continue // one-hop rule: never re-forward
		}
		switch sub.client.sendMsg(subj, sub.sid, pb) {
		case sendOK:
			msgsOut++
			bytesOut += plen
		case sendDrop:
			drops++
		case sendDisconnect:
			discs++
		}
	}
	for _, sp := range r.qSpans {
		name := r.qArena[sp.off : sp.off+sp.n]
		r.localQ = r.localQ[:0]
		for _, members := range rs.queues {
			if len(members) == 0 || string(name) != members[0].queue {
				continue
			}
			for _, m := range members {
				if m.rt == nil {
					r.localQ = append(r.localQ, m)
				}
			}
		}
		if len(r.localQ) == 0 {
			continue
		}
		pick := r.localQ[sh.rng.Intn(len(r.localQ))]
		switch pick.client.sendMsg(subj, pick.sid, pb) {
		case sendOK:
			msgsOut++
			bytesOut += plen
		case sendDrop:
			drops++
		case sendDisconnect:
			discs++
		}
	}
	sh.mu.Unlock()
	pb.release()
	st.write(func() {
		st.msgsIn.Add(1)
		st.bytesIn.Add(plen)
		st.msgsOut.Add(msgsOut)
		st.bytesOut.Add(bytesOut)
		if drops > 0 {
			st.slowDrops.Add(drops)
		}
		if discs > 0 {
			st.slowDisconnects.Add(discs)
		}
	})
}

// interestAdd refcounts one local (pattern, queue) interest; the 0→1
// transition broadcasts RS+ to every route.
func (s *Server) interestAdd(pattern, queue string) {
	k := interestKey{pattern: pattern, queue: queue}
	s.fedMu.Lock()
	n := s.localInterest[k] + 1
	s.localInterest[k] = n
	if n == 1 {
		for _, r := range s.routes {
			r.ln.sendLine(rsLine("RS+", k))
		}
	}
	s.fedMu.Unlock()
}

// interestDrop undoes interestAdd; the 1→0 transition broadcasts RS-.
func (s *Server) interestDrop(pattern, queue string) {
	k := interestKey{pattern: pattern, queue: queue}
	s.fedMu.Lock()
	n := s.localInterest[k] - 1
	if n <= 0 {
		delete(s.localInterest, k)
		if n == 0 {
			for _, r := range s.routes {
				r.ln.sendLine(rsLine("RS-", k))
			}
		}
	} else {
		s.localInterest[k] = n
	}
	s.fedMu.Unlock()
}

func rsLine(verb string, k interestKey) string {
	if k.queue == "" {
		return verb + " " + k.pattern
	}
	return verb + " " + k.pattern + " " + k.queue
}

// ensureMonitor starts the heartbeat monitor once the first route
// registers. Callers hold fedMu.
func (s *Server) ensureMonitor() {
	if s.monitorOn {
		return
	}
	s.monitorOn = true
	go s.routeMonitor()
}

// routeMonitor is the failure detector: each interval it PINGs every
// route and closes any route silent past the suspect bound. Closing the
// conn unblocks the route's reader, whose teardown withdraws the peer's
// interest — so the time from silent peer to "no longer routed to" is
// bounded by suspect + one monitor tick.
func (s *Server) routeMonitor() {
	t := time.NewTicker(s.opts.hbInterval)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
		}
		cutoff := time.Now().Add(-s.opts.hbSuspect).UnixNano()
		s.fedMu.Lock()
		rts := make([]*route, 0, len(s.routes))
		for _, r := range s.routes {
			rts = append(rts, r)
		}
		s.fedMu.Unlock()
		for _, r := range rts {
			if r.lastRecv.Load() < cutoff {
				r.ln.conn.Close()
			} else {
				r.ln.sendLine("PING")
			}
		}
	}
}
