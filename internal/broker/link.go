package broker

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strconv"
)

// link is the connection substrate every broker connection role is built
// on: the socket, a framed line reader, and the bounded outbound queue
// drained by a vectored writer goroutine (outbound.go). A serverClient
// (client↔broker) and a route (broker↔broker) are both "a link plus a
// command loop": the framing, the arena-backed payload reads, the
// queue/slow-consumer machinery, and the writer are identical, so the
// wire guarantees — per-connection FIFO in enqueue order, byte-identical
// frames across data planes — hold for both roles by construction.
//
// A serverClient can even *become* a route mid-stream (the ROUTE
// handshake upgrades an accepted connection, see route.go): the link is
// the part that survives the upgrade unchanged — same reader position,
// same outbound queue, same writer goroutine.
type link struct {
	conn net.Conn
	r    *bufio.Reader
	out  outQueue
}

// init wires the link to conn with the server's queue bounds and
// admission gauge. The writer goroutine is started separately
// (startWriter) so tests can drive a link synchronously.
func (l *link) init(conn net.Conn, queueFrames int, queueBytes int64, adm *admission) {
	l.conn = conn
	l.r = bufio.NewReaderSize(conn, 64*1024)
	l.out.init(queueFrames, queueBytes, adm)
}

// startWriter spawns the writer goroutine for the selected data plane.
// The writer owns the final conn.Close, so queued replies reach the peer
// before teardown.
func (l *link) startWriter(legacy bool, adm *admission) {
	if legacy {
		go writeLoopLegacy(l.conn, &l.out)
	} else {
		go writeLoop(l.conn, &l.out, adm)
	}
}

// enqueueMsg enqueues one framed message (header + arena payload + CRLF),
// taking the frame's arena reference before the enqueue (the writer may
// drain and release the frame the instant enqueue returns) and giving it
// back on rejection. Overflow applies the slow-consumer policy: drop the
// frame (sendDrop) or tear the connection down (sendDisconnect).
func (l *link) enqueueMsg(hdr *headerBuf, pb *payloadRef, policy SlowConsumerPolicy) sendResult {
	f := outFrame{hdr: hdr, payload: pb.data, pb: pb}
	pb.retain()
	switch l.out.enqueue(f) {
	case enqOK:
		return sendOK
	case enqClosed:
		putHeaderBuf(f.hdr)
		pb.release()
		return sendClosed
	default: // overflow: apply the slow-consumer policy
		putHeaderBuf(f.hdr)
		pb.release()
		if policy == SlowConsumerDrop {
			return sendDrop
		}
		l.out.discard()
		l.conn.Close()
		return sendDisconnect
	}
}

// sendLine enqueues a CRLF-terminated control line.
func (l *link) sendLine(line string) {
	f := outFrame{hdr: encodeLine(line)}
	if l.out.enqueue(f) != enqOK {
		putHeaderBuf(f.hdr)
	}
}

func (l *link) sendErr(msg string) { l.sendLine("-ERR " + msg) }

// readPayload reads an n-byte payload plus its CRLF terminator into a
// fresh arena buffer, returning it with the one publisher reference. On
// error the reference is dropped and the stream is unframeable.
func (l *link) readPayload(n int) (*payloadRef, error) {
	pb := arenaGet(n)
	if _, err := io.ReadFull(l.r, pb.data); err != nil {
		pb.release()
		return nil, err
	}
	if err := consumeCRLF(l.r); err != nil {
		pb.release()
		return nil, err
	}
	return pb, nil
}

// completeLineBuffered reports whether the link's reader already holds a
// full CRLF-terminated line, i.e. whether another command can be parsed
// without blocking. The scan typically ends at the next command's
// terminator a few dozen bytes in.
func (l *link) completeLineBuffered() bool {
	n := l.r.Buffered()
	if n == 0 {
		return false
	}
	buf, err := l.r.Peek(n)
	if err != nil {
		return false
	}
	return bytes.IndexByte(buf, '\n') >= 0
}

// readLineSlice returns the next CRLF- (or LF-) terminated line without
// the terminator. The slice borrows the reader's buffer and is only
// valid until the next read; a line longer than the buffer is copied,
// and one of more than limit bytes (terminator included) is an error.
// limit must be at least the reader's buffer size.
func readLineSlice(r *bufio.Reader, limit int) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Grow by doubling up to limit, so a line that hits the cap has
		// cost under 2*limit bytes of allocation.
		buf := append(make([]byte, 0, min(2*len(line), limit)), line...)
		for err == bufio.ErrBufferFull {
			line, err = r.ReadSlice('\n')
			n := len(buf) + len(line)
			if n > limit {
				return nil, errLineTooLong
			}
			if n > cap(buf) {
				buf = append(make([]byte, 0, min(max(2*cap(buf), n), limit)), buf...)
			}
			buf = append(buf, line...)
		}
		line = buf
	}
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, nil
}

// errLineTooLong reports a control line over the reader's cap.
var errLineTooLong = errors.New("broker: control line too long")

// readCommand returns the link's next control line, capped at MaxPayload
// bytes so a peer's unterminated line cannot grow the broker's memory
// without bound. An over-cap line is answered with -ERR and returned as
// an error, on which the caller closes the link.
func (l *link) readCommand() ([]byte, error) {
	line, err := readLineSlice(l.r, MaxPayload)
	if errors.Is(err, errLineTooLong) {
		l.sendErr("control line too long")
	}
	return line, err
}

// splitFields splits on runs of spaces and tabs without allocating.
func splitFields(line []byte, out [][]byte) [][]byte {
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' {
			j++
		}
		out = append(out, line[i:j])
		i = j
	}
	return out
}

// asciiFold reports whether b equals upper (an upper-case ASCII literal)
// ignoring case.
func asciiFold(b []byte, upper string) bool {
	if len(b) != len(upper) {
		return false
	}
	for i := 0; i < len(b); i++ {
		ch := b[i]
		if 'a' <= ch && ch <= 'z' {
			ch -= 'a' - 'A'
		}
		if ch != upper[i] {
			return false
		}
	}
	return true
}

// parseSize parses a payload size in [0, MaxPayload].
func parseSize(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 8 {
		return 0, false
	}
	n := 0
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		n = n*10 + int(ch-'0')
	}
	if n > MaxPayload {
		return 0, false
	}
	return n, true
}

// encodeMsgHeader appends "MSG <subject> <sid> <n>\r\n" to a pooled buf.
func encodeMsgHeader(subject []byte, sid string, n int) *headerBuf {
	h := getHeaderBuf()
	b := h.b
	b = append(b, "MSG "...)
	b = append(b, subject...)
	b = append(b, ' ')
	b = append(b, sid...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, '\r', '\n')
	h.b = b
	return h
}

func consumeCRLF(r *bufio.Reader) error {
	b, err := r.ReadByte()
	if err != nil {
		return err
	}
	if b == '\r' {
		if b, err = r.ReadByte(); err != nil {
			return err
		}
	}
	if b != '\n' {
		return errors.New("broker: payload not terminated by CRLF")
	}
	return nil
}
