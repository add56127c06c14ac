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
	"repro/internal/platform"
)

// Server is the target-machine daemon: it owns the platform under test and
// the instruments physically attached to the bench, and executes the
// workstation's commands.
//
// Each connection is an independent session with its own loaded/running
// workload slot, so pooled workstation clients can interleave
// LOAD/RUN/MEASURE cycles freely (the daemon time-slices the one physical
// target; the simulated instruments are content-deterministic, so the
// interleaving cannot change any reading). Domain state is guarded by a
// per-domain reader/writer lock: measurements (MEASURE/SWEEP/VMIN) share
// the domain, setpoint changes (SETCLOCK/SETVOLTS/SETCORES/RESET) take it
// exclusively — a setpoint can never change in the middle of a
// measurement.
type Server struct {
	Bench *core.Bench

	mu        sync.Mutex
	closed    bool
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	domLocks  map[string]*sync.RWMutex
	stats     map[string]*ServerCommandStats
}

// ServerCommandStats counts executions of one protocol verb.
type ServerCommandStats struct {
	Calls  int64
	Errors int64
}

// session is the per-connection state: the workload slot this client owns.
type session struct {
	current *loaded
	running bool
}

type loaded struct {
	domain *platform.Domain
	load   platform.Load
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
		domLocks:  make(map[string]*sync.RWMutex),
		stats:     make(map[string]*ServerCommandStats),
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

// domLock returns the reader/writer lock guarding one domain's state.
func (s *Server) domLock(name string) *sync.RWMutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.domLocks[name]
	if l == nil {
		l = &sync.RWMutex{}
		s.domLocks[name] = l
	}
	return l
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.untrackConn(conn)
		_ = conn.Close()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	sess := &session{}
	for s.serveOne(sess, r, w) {
	}
}

// serveOne reads and executes one request and writes its one reply line.
// It reports false when the session is over: after QUIT, or when the
// request stream is broken or cannot be resynchronized.
func (s *Server) serveOne(sess *session, r *bufio.Reader, w *bufio.Writer) bool {
	line, err := readLine(r)
	if err != nil {
		return false
	}
	quit, err := s.dispatch(sess, r, w, line)
	if err != nil {
		return writeLine(w, "%s %v", replyErr, err) == nil
	}
	return !quit
}

// dispatch executes one command; successful commands write their own OK.
func (s *Server) dispatch(sess *session, r *bufio.Reader, w *bufio.Writer, line string) (quit bool, err error) {
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
	case "STATE":
		return false, s.cmdState(w, fields)
	case "LOAD":
		return false, s.cmdLoad(sess, r, w, fields)
	case "RUN":
		return false, s.cmdRun(sess, w)
	case "STOP":
		return false, s.cmdStop(sess, w)
	case "MEASURE":
		return false, s.cmdMeasure(sess, w, fields)
	case "VMEASURE":
		return false, s.cmdVMeasure(sess, w, fields)
	case "SWEEP":
		return false, s.cmdSweep(w, fields)
	case "VMIN":
		return false, s.cmdVmin(sess, w, fields)
	case "SHMOO":
		return false, s.cmdShmoo(sess, w, fields)
	case "MONITOR":
		return false, s.cmdMonitor(r, w, fields)
	case "SETCLOCK":
		return false, s.cmdSet(w, fields, func(d *platform.Domain, v float64) error {
			return d.SetClockHz(v)
		})
	case "SETVOLTS":
		return false, s.cmdSet(w, fields, func(d *platform.Domain, v float64) error {
			return d.SetSupplyVolts(v)
		})
	case "SETCORES":
		return false, s.cmdSetCores(w, fields)
	case "RESET":
		return false, s.cmdReset(w, fields)
	case "STATS":
		return false, s.cmdStats(w, fields)
	case "QUIT":
		_ = writeLine(w, "%s bye", replyOK)
		return true, nil
	default:
		return false, fmt.Errorf("unknown command %q", verb)
	}
}

func (s *Server) domain(name string) (*platform.Domain, error) {
	return s.Bench.Platform.Domain(name)
}

// benchWithSamples returns the daemon's bench, re-sampled through a
// shallow copy when a request asks for a different analyzer averaging
// depth (the copy shares platform, analyzer and caches).
func (s *Server) benchWithSamples(samples int) *core.Bench {
	if samples == s.Bench.Samples {
		return s.Bench
	}
	b2 := *s.Bench
	b2.Samples = samples
	return &b2
}
