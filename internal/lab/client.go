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
	mu    sync.Mutex
	cores map[string]int
}

func newSetpoints() *setpoints {
	return &setpoints{cores: make(map[string]int)}
}

// update runs fn on the record with it locked.
func (sp *setpoints) update(fn func(sp *setpoints)) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	fn(sp)
}

// commands renders the record as the SETCORES commands that restore it,
// in domain order.
func (sp *setpoints) commands() []command {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	var cmds []command
	for _, dom := range sortedKeys(sp.cores) {
		cmds = append(cmds, command{verb: "SETCORES", line: fmt.Sprintf("SETCORES %s %d", dom, sp.cores[dom])})
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

	// req and prog are the reusable buffers a request body is formatted
	// in (see Client.body).
	req, prog []byte
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
	err := c.exchange(command{verb: "QUIT", line: "QUIT"})
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
// program parts of a load-carrying verb), the number of reply lines (0
// means one) and a payload parser run on each OK line, k counting them
// from 0.
type command struct {
	verb    string
	line    string
	body    []byte
	replies int
	parse   func(k int, payload string) error
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
		err := c.exchange(cmd)
		if err == nil || IsTargetError(err) {
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

// exchange performs one raw request/reply round trip. The I/O deadline
// covers sending the request and the first reply line, and is re-armed
// for every further line, so a streamed reply may take as long as its
// lines need. It returns a *TargetError for an ERR line and a transport
// error for anything else that goes wrong — an OK line whose payload does
// not parse included, since that means the stream is desynced or
// corrupted.
func (c *Client) exchange(cmd command) error {
	if c.conn == nil {
		return &transportError{op: cmd.verb, err: fmt.Errorf("no connection")}
	}
	_ = c.conn.SetDeadline(time.Now().Add(c.opts.IOTimeout))
	defer func() { _ = c.conn.SetDeadline(time.Time{}) }()
	_, err := c.w.WriteString(cmd.line)
	if err == nil {
		err = c.w.WriteByte('\n')
	}
	if err == nil {
		_, err = c.w.Write(cmd.body)
	}
	if err == nil {
		err = c.w.Flush()
	}
	if err != nil {
		return &transportError{op: cmd.verb + " send", err: err}
	}
	for k := 0; k < max(cmd.replies, 1); k++ {
		if k > 0 {
			_ = c.conn.SetReadDeadline(time.Now().Add(c.opts.IOTimeout))
		}
		line, err := readLineN(c.r, maxReplyLen)
		if err != nil {
			return &transportError{op: cmd.verb + " receive", err: err}
		}
		ok, payload, err := parseReply(line)
		if err != nil {
			return &transportError{op: cmd.verb + " receive", err: err}
		}
		if !ok {
			return &TargetError{Msg: payload}
		}
		if cmd.parse != nil {
			if err := cmd.parse(k, payload); err != nil {
				return &transportError{op: cmd.verb, err: err}
			}
		}
	}
	return nil
}

// reconnect re-dials and replays the recorded setpoints so the fresh
// connection is indistinguishable from the broken one: per-domain
// SETCORES.
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
		if err := c.exchange(cmd); err != nil {
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
