package lab

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// Options tunes the client's resilience envelope. The zero value of any
// field selects the default noted on it.
type Options struct {
	// DialTimeout bounds each connection attempt (default 5s).
	DialTimeout time.Duration
	// IOTimeout is the per-command read/write deadline (default 10s). A
	// command whose reply does not arrive in time is treated as a
	// transport fault: the connection is dropped and the command retried
	// on a fresh one.
	IOTimeout time.Duration
	// MaxAttempts bounds how often one command is tried, the first attempt
	// included (default 4). Target ERR replies are never retried.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the exponential backoff slept
	// before each reconnect: base<<(attempt-1), capped at max (defaults
	// 50ms and 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.IOTimeout <= 0 {
		o.IOTimeout = 10 * time.Second
	}
	if o.MaxAttempts < 1 {
		o.MaxAttempts = 4
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	return o
}

// setpoints records the domain setpoints written to one daemon: the only
// state a client establishes on the target that a fresh connection (or a
// restarted daemon) would lack, since every measurement request carries
// its own program. It is replayed after every reconnect. Domain state
// lives on the daemon, shared by every session, so all clients of a Pool
// share one record: a RESET sent on any session clears the setting for
// all of them, and a reconnecting session never writes back a value
// another session has since replaced or cleared.
type setpoints struct {
	mu     sync.Mutex
	clocks map[string]float64
	volts  map[string]float64
	cores  map[string]int
}

func newSetpoints() *setpoints {
	return &setpoints{
		clocks: make(map[string]float64),
		volts:  make(map[string]float64),
		cores:  make(map[string]int),
	}
}

// update runs fn on the record with it locked.
func (sp *setpoints) update(fn func(sp *setpoints)) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	fn(sp)
}

// commands renders the record as the SET commands that restore it, in a
// deterministic order: cores, then clocks, then supplies, each by domain.
func (sp *setpoints) commands() []command {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	var cmds []command
	for _, dom := range sortedKeys(sp.cores) {
		cmds = append(cmds, command{verb: "SETCORES", line: fmt.Sprintf("SETCORES %s %d", dom, sp.cores[dom])})
	}
	for _, dom := range sortedKeys(sp.clocks) {
		cmds = append(cmds, command{verb: "SETCLOCK", line: fmt.Sprintf("SETCLOCK %s %g", dom, sp.clocks[dom])})
	}
	for _, dom := range sortedKeys(sp.volts) {
		cmds = append(cmds, command{verb: "SETVOLTS", line: fmt.Sprintf("SETVOLTS %s %g", dom, sp.volts[dom])})
	}
	return cmds
}

// Client is the workstation side: it drives a remote lab daemon over TCP
// and exposes the measurement loop the GA needs. Every command runs under
// Options.IOTimeout; transport faults trigger reconnect + setpoint replay +
// retry with exponential backoff. A Client serves one goroutine at a time;
// use Pool for concurrent evaluation.
type Client struct {
	addr string
	opts Options

	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	setpoints *setpoints
	stats     statsCollector
	closed    bool
}

// Dial connects to a lab daemon with default resilience options and the
// given dial timeout (kept for compatibility; see DialOptions).
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialOptions(addr, Options{DialTimeout: timeout})
}

// DialOptions connects to a lab daemon with explicit resilience options.
func DialOptions(addr string, opts Options) (*Client, error) {
	return dialShared(addr, opts, newSetpoints())
}

// dialShared connects a client that records its setpoints in sp.
func dialShared(addr string, opts Options, sp *setpoints) (*Client, error) {
	c := &Client{
		addr:      addr,
		opts:      opts.withDefaults(),
		setpoints: sp,
	}
	if err := c.connect(false); err != nil {
		return nil, err
	}
	return c, nil
}

// connect establishes (or re-establishes) the TCP session.
func (c *Client) connect(reconnect bool) error {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return &transportError{op: "dialing " + c.addr, err: err}
	}
	c.conn = conn
	c.r = bufio.NewReader(conn)
	c.w = bufio.NewWriter(conn)
	c.stats.dial(reconnect)
	return nil
}

// dropConn abandons the current connection after a transport fault.
func (c *Client) dropConn() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
}

// Close ends the session politely — QUIT is sent and its reply read, so
// the daemon sees an orderly teardown rather than a reset — and closes the
// connection. Safe to call on an already-broken session.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn == nil {
		return nil
	}
	start := time.Now()
	_, err := c.exchange(command{verb: "QUIT", line: "QUIT"})
	c.stats.done("QUIT", time.Since(start), err != nil)
	cerr := c.conn.Close()
	c.conn = nil
	if err != nil {
		return err
	}
	return cerr
}

// Stats returns a snapshot of the client's transport counters.
func (c *Client) Stats() Stats { return c.stats.snapshot() }

// command is one protocol exchange: a request line, an optional body (the
// program parts of a load-carrying verb) and a payload parser run on the
// OK reply.
type command struct {
	verb  string
	line  string
	body  string
	parse func(payload string) error
}

// do runs one command through the resilience loop: attempt, classify,
// back off, reconnect (replaying setpoints), retry. Target ERR
// replies return immediately; only stream-integrity faults are retried.
func (c *Client) do(cmd command) error {
	if c.closed {
		return ErrClosed
	}
	start := time.Now()
	err := c.attemptLoop(cmd)
	c.stats.done(cmd.verb, time.Since(start), err != nil)
	return err
}

func (c *Client) attemptLoop(cmd command) error {
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.stats.retry(cmd.verb)
			c.sleepBackoff(attempt)
		}
		if c.conn == nil {
			if err := c.reconnect(); err != nil {
				if IsTargetError(err) {
					return err // replay rejected by the target: not transient
				}
				lastErr = err
				continue
			}
		}
		payload, err := c.exchange(cmd)
		if err == nil {
			if cmd.parse != nil {
				if perr := cmd.parse(payload); perr != nil {
					// An OK reply whose payload does not parse means the
					// stream is desynced or corrupted: transport fault.
					lastErr = &transportError{op: cmd.verb, err: perr}
					c.dropConn()
					continue
				}
			}
			return nil
		}
		if IsTargetError(err) {
			return err
		}
		lastErr = err
		c.dropConn()
	}
	return fmt.Errorf("lab: %s failed after %d attempt(s): %w",
		cmd.verb, c.opts.MaxAttempts, lastErr)
}

func (c *Client) sleepBackoff(attempt int) {
	d := c.opts.BackoffBase << uint(attempt-1)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	time.Sleep(d)
}

// exchange performs one raw request/reply round trip under the I/O
// deadline. It returns a *TargetError for ERR replies and a transport
// error for anything else that goes wrong.
func (c *Client) exchange(cmd command) (string, error) {
	if c.conn == nil {
		return "", &transportError{op: cmd.verb, err: fmt.Errorf("no connection")}
	}
	_ = c.conn.SetDeadline(time.Now().Add(c.opts.IOTimeout))
	defer func() { _ = c.conn.SetDeadline(time.Time{}) }()
	if _, err := c.w.WriteString(cmd.line + "\n"); err != nil {
		return "", &transportError{op: cmd.verb + " send", err: err}
	}
	if cmd.body != "" {
		if _, err := c.w.WriteString(cmd.body); err != nil {
			return "", &transportError{op: cmd.verb + " send body", err: err}
		}
	}
	if err := c.w.Flush(); err != nil {
		return "", &transportError{op: cmd.verb + " send", err: err}
	}
	line, err := readLineN(c.r, maxReplyLen)
	if err != nil {
		return "", &transportError{op: cmd.verb + " receive", err: err}
	}
	ok, payload, err := parseReply(line)
	if err != nil {
		return "", &transportError{op: cmd.verb + " receive", err: err}
	}
	if !ok {
		return "", &TargetError{Msg: payload}
	}
	return payload, nil
}

// reconnect re-dials and replays the recorded setpoints so the fresh
// connection is indistinguishable from the broken one: per-domain
// SETCORES, SETCLOCK and SETVOLTS.
func (c *Client) reconnect() error {
	if err := c.connect(true); err != nil {
		return err
	}
	if err := c.replay(); err != nil {
		c.dropConn()
		return err
	}
	return nil
}

func (c *Client) replay() error {
	cmds := c.setpoints.commands()
	if len(cmds) == 0 {
		return nil
	}
	c.stats.replay()
	for _, cmd := range cmds {
		if _, err := c.exchange(cmd); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
