package lab

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// Server is the target-machine daemon: it owns the platform under test and
// the instruments physically attached to the bench, and executes the
// workstation's commands.
//
// Neither connections nor the rig hold state: every measurement request
// carries its program and its operating point (powered and active cores;
// clocks where the verb takes them), so pooled workstation clients can
// interleave requests freely (the daemon time-slices the one physical
// target; the simulated instruments are content-deterministic, so the
// interleaving cannot change any reading).
type Server struct {
	Bench *core.Bench

	mu        sync.Mutex
	closed    bool
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	stats     map[string]*ServerCommandStats
	// writeTimeout bounds each write of a reply (replyWriteTimeout).
	writeTimeout time.Duration
}

// replyWriteTimeout is how long one reply write may block on a session
// that has stopped reading. A streaming MEASURE writes from inside its
// batch, so a write that never returned would keep the batch's workers
// and the session's goroutine forever; instead the write fails and the
// session closes.
const replyWriteTimeout = 10 * time.Second

// ServerCommandStats counts executions of one protocol verb.
type ServerCommandStats struct {
	Calls  int64
	Errors int64
}

// NewServer wraps a bench as a lab daemon.
func NewServer(b *core.Bench) (*Server, error) {
	if b == nil {
		return nil, fmt.Errorf("lab: nil bench")
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &Server{
		Bench:     b,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		stats:     make(map[string]*ServerCommandStats),

		writeTimeout: replyWriteTimeout,
	}, nil
}

// Serve accepts connections until the listener is closed or Shutdown is
// called. Transient Accept errors are retried with backoff rather than
// tearing the daemon down; after Shutdown, Serve returns nil.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()

	consecutive := 0
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isClosed() || errors.Is(err, net.ErrClosed) {
				return nil
			}
			consecutive++
			if consecutive > 5 {
				return fmt.Errorf("lab: accept: %w", err)
			}
			time.Sleep(time.Duration(consecutive) * 10 * time.Millisecond)
			continue
		}
		consecutive = 0
		if !s.trackConn(conn) {
			_ = conn.Close()
			return nil
		}
		go s.handle(conn)
	}
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Server) trackConn(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrackConn(conn net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, conn)
}

// Shutdown stops the daemon: no new connections are accepted, every
// listener passed to Serve is closed, and all live handler connections are
// severed. Serve returns nil after Shutdown.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lns := make([]net.Listener, 0, len(s.listeners))
	for ln := range s.listeners {
		lns = append(lns, ln)
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	s.mu.Unlock()

	var firstErr error
	for _, ln := range lns {
		if err := ln.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, conn := range conns {
		_ = conn.Close()
	}
	return firstErr
}

// Stats returns a snapshot of the per-command execution counters.
func (s *Server) Stats() map[string]ServerCommandStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]ServerCommandStats, len(s.stats))
	for verb, cs := range s.stats {
		out[verb] = *cs
	}
	return out
}

// StatsString renders the command counters as a small table.
func (s *Server) StatsString() string {
	stats := s.Stats()
	verbs := make([]string, 0, len(stats))
	for v := range stats {
		verbs = append(verbs, v)
	}
	sort.Strings(verbs)
	var b strings.Builder
	b.WriteString("lab server command counters:")
	if len(verbs) == 0 {
		b.WriteString(" (none)")
	}
	for _, v := range verbs {
		cs := stats[v]
		fmt.Fprintf(&b, "\n  %-8s %6d calls  %3d errors", v, cs.Calls, cs.Errors)
	}
	return b.String()
}

func (s *Server) countCmd(verb string, failed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.stats[verb]
	if cs == nil {
		cs = &ServerCommandStats{}
		s.stats[verb] = cs
	}
	cs.Calls++
	if failed {
		cs.Errors++
	}
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.untrackConn(conn)
		_ = conn.Close()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(deadlineWriter{conn, s.writeTimeout})
	for s.serveOne(r, w) {
	}
}

// deadlineWriter arms the connection's write deadline before each write.
type deadlineWriter struct {
	conn    net.Conn
	timeout time.Duration
}

func (dw deadlineWriter) Write(p []byte) (int, error) {
	_ = dw.conn.SetWriteDeadline(time.Now().Add(dw.timeout))
	return dw.conn.Write(p)
}

// serveOne reads and executes one request and writes its one reply line.
// It reports false when the session is over: after QUIT, or when the
// request stream is broken or cannot be resynchronized.
func (s *Server) serveOne(r *bufio.Reader, w *bufio.Writer) bool {
	line, err := readLine(r)
	if err != nil {
		return false
	}
	quit, err := s.dispatch(r, w, line)
	if errors.Is(err, errStreamLost) {
		return false
	}
	if err != nil {
		return writeLine(w, "%s %v", replyErr, err) == nil
	}
	return !quit
}

// dispatch executes one command; successful commands write their own OK.
func (s *Server) dispatch(r *bufio.Reader, w *bufio.Writer, line string) (quit bool, err error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return false, fmt.Errorf("empty command")
	}
	verb := fields[0]
	defer func() { s.countCmd(verb, err != nil) }()
	switch verb {
	case "HELLO":
		return false, s.cmdHello(w, fields)
	case "INFO":
		return false, s.cmdInfo(w)
	case "CAPS":
		return false, s.cmdCaps(w, fields)
	case "MEASURE":
		return false, s.cmdMeasure(r, w, fields)
	case "VMEASURE":
		return false, s.cmdVMeasure(r, w, fields)
	case "SWEEP":
		return false, s.cmdSweep(w, fields)
	case "VMIN":
		return false, s.cmdVmin(r, w, fields)
	case "SHMOO":
		return false, s.cmdShmoo(r, w, fields)
	case "MONITOR":
		return false, s.cmdMonitor(r, w, fields)
	case "STATS":
		return false, s.cmdStats(w, fields)
	case "QUIT":
		_ = writeLine(w, "%s bye", replyOK)
		return true, nil
	default:
		return false, fmt.Errorf("unknown command %q", verb)
	}
}
