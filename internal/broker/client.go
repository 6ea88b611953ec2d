package broker

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"
)

// Msg is one message delivered to a subscription handler.
type Msg struct {
	Subject string
	Data    []byte
}

// Handler receives messages for a subscription. Handlers run on the
// client's reader goroutine; slow handlers delay subsequent messages.
// Msg.Data belongs to the handler, which may keep or modify it.
type Handler func(Msg)

// Client is a broker client. All methods are safe for concurrent use.
//
// Writes are coalesced: Publish and the control commands append their
// frames to a pending buffer and wake a flusher goroutine, which hands
// everything pending to the kernel in one write. A caller that finds
// clientFlushInline bytes pending writes them itself, which bounds the
// buffer and pushes back on publishers when the peer stops reading.
type Client struct {
	conn net.Conn

	wmu     sync.Mutex    // guards pending and werr
	pending []byte        // frames not yet handed to the kernel
	werr    error         // sticky: the first write or read error, or ErrClientClosed
	kick    chan struct{} // cap 1: wakes the flusher

	// cwmu serialises conn writes. It is taken before wmu, so the buffer
	// swapped out first is also the first one written.
	cwmu  sync.Mutex
	spare []byte // the written buffer, reused as the next pending one

	mu      sync.Mutex
	subs    map[string]*Subscription
	nextSID uint64
	pongs   []chan struct{}
	closed  bool

	done    chan struct{} // closed when the reader exits
	flushed chan struct{} // closed when the flusher exits
}

const (
	// clientFlushInline is the pending size at which a caller writes the
	// buffer itself instead of leaving it to the flusher.
	clientFlushInline = 64 << 10
	// clientKeepBuf is the largest write buffer kept for reuse; one large
	// publish does not pin a megabyte per client.
	clientKeepBuf = 2 * clientFlushInline
	// clientCloseTimeout bounds the write Close gives pending frames.
	clientCloseTimeout = time.Second
	// clientSlab is the size of the slabs small payloads are carved from;
	// payloads above clientSlabMax get an allocation of their own.
	clientSlab    = 64 << 10
	clientSlabMax = 8 << 10
)

// Dial connects to a broker at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("broker: dial %s: %w", addr, err)
	}
	return NewClient(conn)
}

// NewClient wraps an established connection (useful with net.Pipe in
// tests).
func NewClient(conn net.Conn) (*Client, error) {
	c := &Client{
		conn:    conn,
		kick:    make(chan struct{}, 1),
		subs:    make(map[string]*Subscription),
		done:    make(chan struct{}),
		flushed: make(chan struct{}),
	}
	c.sendLine("CONNECT", "client") // only queues: nothing can fail yet
	go c.flushLoop()
	go c.readLoop()
	return c, nil
}

// Subscription is a live subscription.
type Subscription struct {
	client  *Client
	sid     string
	Pattern string
	Queue   string
	handler Handler
}

// Subscribe registers handler for every message matching pattern.
func (c *Client) Subscribe(pattern string, handler Handler) (*Subscription, error) {
	return c.subscribe(pattern, "", handler)
}

// QueueSubscribe registers handler as a member of the named queue group:
// each message is delivered to exactly one member of the group.
func (c *Client) QueueSubscribe(pattern, queue string, handler Handler) (*Subscription, error) {
	if queue == "" {
		return nil, errors.New("broker: empty queue group")
	}
	return c.subscribe(pattern, queue, handler)
}

func (c *Client) subscribe(pattern, queue string, handler Handler) (*Subscription, error) {
	if handler == nil {
		return nil, errors.New("broker: nil handler")
	}
	if err := ValidatePattern(pattern); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	c.nextSID++
	sid := strconv.FormatUint(c.nextSID, 10)
	sub := &Subscription{client: c, sid: sid, Pattern: pattern, Queue: queue, handler: handler}
	c.subs[sid] = sub
	c.mu.Unlock()

	var err error
	if queue == "" {
		err = c.sendLine("SUB", pattern, sid)
	} else {
		err = c.sendLine("SUB", pattern, queue, sid)
	}
	if err != nil {
		c.mu.Lock()
		delete(c.subs, sid)
		c.mu.Unlock()
		return nil, err
	}
	return sub, nil
}

// Unsubscribe removes the subscription.
func (s *Subscription) Unsubscribe() error {
	c := s.client
	c.mu.Lock()
	delete(c.subs, s.sid)
	c.mu.Unlock()
	return c.sendLine("UNSUB", s.sid)
}

// Publish sends data on subject. A nil error means the frame is queued
// behind everything sent before it; Flush confirms the broker has it.
func (c *Client) Publish(subject string, data []byte) error {
	if err := ValidateSubject(subject); err != nil {
		return err
	}
	if len(data) > MaxPayload {
		return fmt.Errorf("broker: payload %d exceeds max %d", len(data), MaxPayload)
	}
	c.wmu.Lock()
	if err := c.werr; err != nil {
		c.wmu.Unlock()
		return err
	}
	b := c.pending
	b = append(b, "PUB "...)
	b = append(b, subject...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(data)), 10)
	b = append(b, '\r', '\n')
	b = append(b, data...)
	b = append(b, '\r', '\n')
	c.pending = b
	return c.queued()
}

// sendLine queues a space-joined, CRLF-terminated control line.
func (c *Client) sendLine(words ...string) error {
	c.wmu.Lock()
	if err := c.werr; err != nil {
		c.wmu.Unlock()
		return err
	}
	b := c.pending
	for i, w := range words {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, w...)
	}
	b = append(b, '\r', '\n')
	c.pending = b
	return c.queued()
}

// queued is called with wmu held after a frame was appended. It releases
// wmu and either wakes the flusher or, once clientFlushInline bytes are
// pending, writes them on the caller's goroutine.
func (c *Client) queued() error {
	inline := len(c.pending) >= clientFlushInline
	if !inline {
		select {
		case c.kick <- struct{}{}:
		default: // the flusher is already due to run
		}
	}
	c.wmu.Unlock()
	if inline {
		return c.writePending()
	}
	return nil
}

// flushLoop writes pending frames each time it is kicked, until the
// reader exits (which it does once the connection is closed or failed).
func (c *Client) flushLoop() {
	defer close(c.flushed)
	for {
		select {
		case <-c.kick:
			c.writePending()
		case <-c.done:
			return
		}
	}
}

// writePending swaps the pending buffer for the spare one and writes it
// in one conn.Write. A write error becomes the sticky error and closes
// the connection.
func (c *Client) writePending() error {
	c.cwmu.Lock()
	defer c.cwmu.Unlock()
	c.wmu.Lock()
	buf, err := c.pending, c.werr
	if err == nil {
		c.pending, c.spare = c.spare[:0], buf
	}
	c.wmu.Unlock()
	if err != nil || len(buf) == 0 {
		return err
	}
	if _, err = c.conn.Write(buf); err != nil {
		c.fail(err)
	}
	if cap(buf) > clientKeepBuf {
		c.spare = nil
	}
	return err
}

// fail records err as the sticky error (the first one wins) and closes
// the connection, which unblocks any write and ends the reader.
func (c *Client) fail(err error) {
	c.wmu.Lock()
	if c.werr == nil {
		c.werr = err
	}
	c.wmu.Unlock()
	c.conn.Close()
}

// Flush round-trips a PING/PONG, guaranteeing the broker has processed
// everything sent before the call.
func (c *Client) Flush(timeout time.Duration) error {
	ch := make(chan struct{}, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClientClosed
	}
	c.pongs = append(c.pongs, ch)
	c.mu.Unlock()
	if err := c.sendLine("PING"); err != nil {
		return err
	}
	// Reuse pooled timers instead of time.After: a fleet doing a flush
	// barrier per publish batch would otherwise allocate a timer (and
	// leave it live until it fires) on every call.
	t := flushTimers.Get().(*time.Timer)
	t.Reset(timeout)
	defer func() {
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
		flushTimers.Put(t)
	}()
	select {
	case <-ch:
		return nil
	case <-t.C:
		return errors.New("broker: flush timeout")
	case <-c.done:
		return c.err()
	}
}

// flushTimers pools stopped, drained timers for Flush. A pool (rather
// than one timer per client) keeps concurrent Flush calls on the same
// client correct.
var flushTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return t
}}

// ErrClientClosed is returned by operations on a closed client.
var ErrClientClosed = errors.New("broker: client closed")

// Close gives pending frames one write, bounded by clientCloseTimeout so
// a peer that stopped reading cannot hold it, then tears the connection
// down.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	// The deadline also ends a write the flusher is blocked in.
	c.conn.SetWriteDeadline(time.Now().Add(clientCloseTimeout))
	c.writePending()
	c.wmu.Lock()
	if c.werr == nil {
		c.werr = ErrClientClosed
	}
	c.wmu.Unlock()
	err := c.conn.Close()
	<-c.done
	<-c.flushed
	if errors.Is(err, net.ErrClosed) {
		err = nil // a failed write or read closed it first
	}
	return err
}

// err is the reason the client stopped: the sticky error.
func (c *Client) err() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr != nil {
		return c.werr
	}
	return ErrClientClosed
}

func (c *Client) readLoop() {
	defer close(c.done)
	c.fail(c.read())
}

// read runs the receive loop until the stream fails or breaks framing.
// The line and its fields borrow the reader's buffer, so the sid and
// subject are resolved before the payload read moves it on.
func (c *Client) read() error {
	r := bufio.NewReaderSize(c.conn, 64<<10)
	var fields [8][]byte
	var subject string // the previous subject, reused while it repeats
	var slab []byte
	for {
		line, err := readLineSlice(r, MaxPayload)
		if err != nil {
			return err
		}
		nf := splitFields(line, fields[:0])
		if len(nf) == 0 {
			continue
		}
		switch string(nf[0]) {
		case "PONG":
			c.mu.Lock()
			if len(c.pongs) > 0 {
				ch := c.pongs[0]
				c.pongs = c.pongs[1:]
				c.mu.Unlock()
				ch <- struct{}{}
			} else {
				c.mu.Unlock()
			}
		case "MSG":
			if len(nf) != 4 {
				continue
			}
			n, ok := parseSize(nf[3])
			if !ok {
				return fmt.Errorf("broker: bad MSG size %q", nf[3])
			}
			c.mu.Lock()
			sub := c.subs[string(nf[2])]
			c.mu.Unlock()
			if string(nf[1]) != subject {
				subject = string(nf[1])
			}
			var data []byte
			if n <= clientSlabMax {
				// Carve from the slab with cap == len: the handler owns the
				// bytes, and an append reallocates instead of overwriting the
				// next message.
				if len(slab) < n {
					slab = make([]byte, clientSlab)
				}
				data, slab = slab[:n:n], slab[n:]
			} else {
				data = make([]byte, n)
			}
			if _, err := io.ReadFull(r, data); err != nil {
				return err
			}
			if err := consumeCRLF(r); err != nil {
				return err
			}
			if sub != nil {
				sub.handler(Msg{Subject: subject, Data: data})
			}
		case "-ERR":
			// Protocol errors are surfaced on the next Flush; keep reading.
		}
	}
}
