// Package chaos is a fault-injection TCP proxy for the lab protocol: it
// sits between a workstation client and a labtarget daemon and
// deterministically injects the failure modes a distributed measurement
// loop must tolerate — connections dropped mid-command (the reply is
// consumed and never delivered), replies delayed past the client's I/O
// deadline, and garbled reply lines. Fault decisions are drawn from
// deterministic streams (internal/detrand) keyed by the proxy seed and the
// connection's accept index, so a given connection always sees the same
// fault sequence and test runs are reproducible.
//
// Faults are injected only on the server-to-client reply path, one
// decision per reply line: the request always reaches the target, which is
// the hard case for the client — it must assume the command may have
// executed and rely on idempotent retry. Garbling prepends a byte that can
// never start a valid reply, so a corrupted line is always detectable
// (silently altering a measurement value would break the determinism
// contract the GA relies on).
package chaos

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detrand"
)

// Config sets the per-reply fault probabilities. Probabilities are
// evaluated in order garble, delay, drop — at most one fault fires per
// reply.
type Config struct {
	// Seed roots the deterministic fault streams.
	Seed int64
	// GarbleRate is the probability a reply line is corrupted in a way the
	// client is guaranteed to detect as a malformed reply.
	GarbleRate float64
	// DelayRate is the probability a reply is held back for Delay before
	// being forwarded (use a Delay beyond the client's IOTimeout to force
	// deadline expiries).
	DelayRate float64
	Delay     time.Duration
	// DropRate is the probability the connection is severed instead of
	// forwarding a reply: the target executed the command, the client
	// never hears back.
	DropRate float64
	// DropAfter, when positive, severs every connection instead of
	// forwarding its reply line number DropAfter+1: a target that dies in
	// the middle of a streamed reply, at the same line on each session.
	DropAfter int
}

// Stats counts injected faults and proxied connections.
type Stats struct {
	Conns   int64
	Drops   int64
	Delays  int64
	Garbles int64
}

// Proxy is a running fault-injection proxy.
type Proxy struct {
	cfg      Config
	upstream string
	ln       net.Listener

	conns, drops, delays, garbles atomic.Int64

	mu     sync.Mutex
	active map[net.Conn]struct{} // client-side conns, for KillActive
	closed bool
}

// New starts a proxy on a fresh loopback port forwarding to upstream.
func New(upstream string, cfg Config) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chaos: listen: %w", err)
	}
	p := &Proxy{
		cfg:      cfg,
		upstream: upstream,
		ln:       ln,
		active:   make(map[net.Conn]struct{}),
	}
	go p.acceptLoop()
	return p, nil
}

// Addr returns the address clients should dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Stats returns a snapshot of the fault counters.
func (p *Proxy) Stats() Stats {
	return Stats{
		Conns:   p.conns.Load(),
		Drops:   p.drops.Load(),
		Delays:  p.delays.Load(),
		Garbles: p.garbles.Load(),
	}
}

// KillActive severs every connection currently flowing through the proxy —
// a deterministic way for tests to force a mid-session reconnect without
// relying on probabilistic drops.
func (p *Proxy) KillActive() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, len(p.active))
	for c := range p.active {
		conns = append(conns, c)
	}
	p.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

// Close stops accepting and severs all active connections.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.KillActive()
	return err
}

func (p *Proxy) acceptLoop() {
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		n := p.conns.Add(1)
		go p.proxy(client, n-1)
	}
}

func (p *Proxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.active[c] = struct{}{}
	return true
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.active, c)
}

// proxy shuttles one session. The request direction is copied verbatim;
// the reply direction is read line-by-line with one fault decision each,
// drawn from the connection's private deterministic stream.
func (p *Proxy) proxy(client net.Conn, index int64) {
	defer client.Close()
	if !p.track(client) {
		return
	}
	defer p.untrack(client)

	server, err := net.DialTimeout("tcp", p.upstream, 5*time.Second)
	if err != nil {
		return
	}
	defer server.Close()

	// Requests: verbatim copy until either side dies.
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := client.Read(buf)
			if n > 0 {
				if _, werr := server.Write(buf[:n]); werr != nil {
					break
				}
			}
			if err != nil {
				break
			}
		}
		// Stop the reply loop too: a half-dead session is of no use to
		// the line protocol.
		_ = server.Close()
		_ = client.Close()
	}()

	rng := detrand.Stream(p.cfg.Seed, uint64(index))
	r := bufio.NewReader(server)
	w := bufio.NewWriter(client)
	for n := 0; ; n++ {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		f := p.roll(rng)
		if p.cfg.DropAfter > 0 && n == p.cfg.DropAfter {
			f = faultDrop
		}
		switch f {
		case faultGarble:
			p.garbles.Add(1)
			// 0x15 (NAK) can never begin "OK"/"ERR", so the client always
			// classifies the line as malformed and retries.
			line = "\x15" + line
		case faultDelay:
			p.delays.Add(1)
			time.Sleep(p.cfg.Delay)
		case faultDrop:
			p.drops.Add(1)
			_ = server.Close()
			return
		}
		if _, err := w.WriteString(line); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

type fault int

const (
	faultNone fault = iota
	faultGarble
	faultDelay
	faultDrop
)

// roll makes one fault decision. A single uniform draw per reply keeps the
// stream advance rate fixed, so the decision sequence depends only on the
// seed and connection index — not on which faults fired earlier.
func (p *Proxy) roll(rng *rand.Rand) fault {
	x := rng.Float64()
	switch {
	case x < p.cfg.GarbleRate:
		return faultGarble
	case x < p.cfg.GarbleRate+p.cfg.DelayRate:
		return faultDelay
	case x < p.cfg.GarbleRate+p.cfg.DelayRate+p.cfg.DropRate:
		return faultDrop
	default:
		return faultNone
	}
}
