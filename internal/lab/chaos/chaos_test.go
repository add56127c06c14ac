package chaos

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// echoServer is a minimal line server: every request line gets "OK <line>".
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				for {
					line, err := r.ReadString('\n')
					if err != nil {
						return
					}
					if _, err := fmt.Fprintf(conn, "OK %s", line); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// runSession sends n pings over one proxied connection and reports how
// many replies came back garbled and how many were received before the
// connection died.
func runSession(t *testing.T, addr string, n int) (garbled, received int) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	for i := 0; i < n; i++ {
		if _, err := fmt.Fprintf(conn, "ping %d\n", i); err != nil {
			return garbled, received
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		line, err := r.ReadString('\n')
		if err != nil {
			return garbled, received
		}
		received++
		if !strings.HasPrefix(line, "OK ping") {
			garbled++
		}
	}
	return garbled, received
}

// TestDeterministicFaults: the same seed must produce the same fault
// sequence on the same connection index — and a different seed a
// (generally) different one.
func TestDeterministicFaults(t *testing.T) {
	upstream := echoServer(t)
	run := func(seed int64) (int, int) {
		p, err := New(upstream, Config{Seed: seed, GarbleRate: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		g, rec := runSession(t, p.Addr(), 60)
		if rec != 60 {
			t.Fatalf("lost replies without drops configured: %d/60", rec)
		}
		if int(p.Stats().Garbles) != g {
			t.Fatalf("proxy counted %d garbles, client saw %d", p.Stats().Garbles, g)
		}
		return g, rec
	}
	g1, _ := run(7)
	g2, _ := run(7)
	if g1 != g2 {
		t.Fatalf("same seed, different garble counts: %d vs %d", g1, g2)
	}
	if g1 == 0 {
		t.Fatal("garble rate 0.3 over 60 replies produced nothing")
	}
}

// TestDrop: with certain drop probability the first reply never arrives
// and the connection dies.
func TestDrop(t *testing.T) {
	upstream := echoServer(t)
	p, err := New(upstream, Config{Seed: 1, DropRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	_, received := runSession(t, p.Addr(), 3)
	if received != 0 {
		t.Fatalf("received %d replies through a 100%% drop proxy", received)
	}
	if p.Stats().Drops < 1 {
		t.Fatalf("drop not counted: %+v", p.Stats())
	}
}

// TestDropAfter: the connection dies in place of the reply after the
// first DropAfter, on every connection alike.
func TestDropAfter(t *testing.T) {
	upstream := echoServer(t)
	p, err := New(upstream, Config{Seed: 1, DropAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for conn := 0; conn < 2; conn++ {
		if _, received := runSession(t, p.Addr(), 5); received != 2 {
			t.Fatalf("connection %d: received %d replies, want 2", conn, received)
		}
	}
	if p.Stats().Drops != 2 {
		t.Fatalf("drops = %d, want 2", p.Stats().Drops)
	}
}

// TestDelay: delayed replies arrive late but intact.
func TestDelay(t *testing.T) {
	upstream := echoServer(t)
	p, err := New(upstream, Config{Seed: 3, DelayRate: 1, Delay: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	start := time.Now()
	garbled, received := runSession(t, p.Addr(), 2)
	if received != 2 || garbled != 0 {
		t.Fatalf("received %d (garbled %d)", received, garbled)
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		t.Fatalf("two certain delays of 150ms took only %v", elapsed)
	}
	if p.Stats().Delays != 2 {
		t.Fatalf("delays = %d, want 2", p.Stats().Delays)
	}
}

// TestKillActive severs live connections on demand.
func TestKillActive(t *testing.T) {
	upstream := echoServer(t)
	p, err := New(upstream, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	if _, err := fmt.Fprintf(conn, "ping\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	p.KillActive()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintf(conn, "ping\n"); err == nil {
		if _, err := r.ReadString('\n'); err == nil {
			t.Fatal("connection survived KillActive")
		}
	}
}
