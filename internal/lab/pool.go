package lab

import (
	"fmt"
	"sync"
	"time"
)

// Pool is a fixed-size set of lab clients to one daemon. Each concurrent
// evaluation checks a client out, sends its request on it, and returns it
// — so N GA workers drive N independent sessions instead of serializing
// on one connection. Every client carries the full resilience envelope
// (deadlines, retry, reconnect, replay), and because every measurement
// request carries its own program, interleaved requests from different
// clients cannot clobber each other.
type Pool struct {
	free chan *Client
	// done is closed by Close before the free channel is drained, so a Do
	// blocked on checkout wakes with ErrClosed instead of sleeping forever
	// on a channel Close has emptied.
	done chan struct{}

	mu      sync.Mutex
	clients []*Client
	closed  bool
}

// NewPool dials size concurrent clients (size < 1 is treated as 1). If any
// dial fails, the already-connected clients are closed and the error
// returned.
func NewPool(addr string, size int, opts Options) (*Pool, error) {
	if size < 1 {
		size = 1
	}
	p := &Pool{free: make(chan *Client, size), done: make(chan struct{})}
	for i := 0; i < size; i++ {
		c, err := DialOptions(addr, opts)
		if err != nil {
			_ = p.Close()
			return nil, fmt.Errorf("lab: pool client %d: %w", i, err)
		}
		p.clients = append(p.clients, c)
		p.free <- c
	}
	return p, nil
}

// Do checks a client out of the pool, runs fn on it, and returns it. A Do
// racing Close either completes normally (Close waits for the client to
// come back) or returns ErrClosed; it can never block forever — checkout
// selects against the pool's closed signal, so a Close that drains the
// free channel between Do's admission check and its receive wakes the
// blocked checkout instead of stranding it.
func (p *Pool) Do(fn func(*Client) error) error {
	select {
	case <-p.done:
		return ErrClosed
	default:
	}
	select {
	case c := <-p.free:
		defer func() { p.free <- c }()
		return fn(c)
	case <-p.done:
		return ErrClosed
	}
}

// Stats aggregates the transport counters of every pooled client.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out Stats
	for _, c := range p.clients {
		out.merge(c.Stats())
	}
	return out
}

// Close closes every pooled client (waiting for checked-out clients to be
// returned) and marks the pool unusable.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.done)
	clients := p.clients
	p.mu.Unlock()

	// Drain the free channel so in-flight Do calls finish first.
	var firstErr error
	deadline := time.After(30 * time.Second)
	for range clients {
		select {
		case <-p.free:
		case <-deadline:
			firstErr = fmt.Errorf("lab: pool close timed out waiting for busy clients")
		}
		if firstErr != nil {
			break
		}
	}
	for _, c := range clients {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
