// Package lab implements the paper's measurement orchestration (Section
// 3.2): the GA runs on a workstation, ships each individual's assembly
// source to the target machine, starts it, drives the spectrum analyzer to
// take the measurement, and then kills the binary. Here the transport is a
// line-oriented TCP protocol instead of SSH plus an instrument bus, and
// that whole loop is one request: every measurement verb carries the
// programs it measures (MEASURE a chunk of a generation's individuals) and
// the operating point it measures them at, so neither a connection nor the
// rig holds any state between requests. The failure modes a distributed
// measurement loop must tolerate are the same, and the workstation side is
// built to tolerate them: every command runs under a read/write deadline,
// transport faults (dropped connections, timeouts, corrupted replies)
// trigger a bounded exponential-backoff reconnect before the request is
// retried, and a Pool of concurrent clients lets the GA evaluate a whole
// population in parallel against one daemon (`gahunt -remote -j N`).
// Target-side `ERR` replies are never retried — the command reached the
// target and was rejected; only stream integrity failures are.
//
// The grammar (requests are single lines, each load-carrying verb
// followed by its program parts). A part is a header "<domain> <powered>
// <cores> <lines> <nphase> [phase...]" and <lines> lines of assembly: the
// load runs on <cores> active cores with <powered> cores powered and the
// rest power-gated, 1 ≤ cores ≤ powered ≤ the domain's total. VMIN and
// SHMOO are each followed by exactly one part, MEASURE and MONITOR by
// <nparts>:
//
//	HELLO <version>                 → OK <version> <platform> <seed>
//	                                  (the analyzer seed); a version other
//	                                  than ProtocolVersion is ERR
//	INFO                            → OK <platform> <domain>/<cores>...
//	CAPS <domain>                   → OK <cores> <arch> <maxHz> <stepHz>
//	                                     <visibility> <dsoKind>
//	MEASURE <metric> <samples> <dsoseed> <nparts>
//	                       + parts  → nparts × "OK <fitness> <domHz>", one
//	                                  line per part in part order: each
//	                                  part's GA fitness under the metric
//	                                  (em: the averaged EM peak in dBm;
//	                                  droop|ptp: the rail read through the
//	                                  domain's scope, seeded with dsoseed,
//	                                  which em ignores) and its dominant
//	                                  frequency; every part names the same
//	                                  domain and powered cores,
//	                                  1 ≤ nparts ≤ MaxMeasureParts
//	SWEEP <domain> <powered> <cores> <samples> [clockHz...]
//	                                → OK <n> then n × "<inBand> <clock>
//	                                     <loop> <dbm>", one per listed
//	                                     clock (Section 5.3 fast sweep;
//	                                     an out-of-band step is "0 0 0 0")
//	VMIN <seed> <repeats>  + part   → OK <vmin> <margin> <droop> <outcome>
//	                                     <n> <v1> ... <vn>
//	SHMOO <seed> <clockHz>... + part
//	                                → OK <n> then n × "<clock> <vmin>
//	                                     <margin> <outcome>"
//	MONITOR <nparts>       + parts  → OK <n> <startHz> <rbwHz> <dbm...>
//	                                  (every part with all cores powered)
//	STATS <domain>                  → OK <quoted eval-stats string>
//	QUIT                            close the session (replies "OK bye")
//
// Every verb without a clock runs at the maximum clock and nominal supply.
// Responses are "OK ..." or "ERR <message>". Every verb but MEASURE
// replies with one line. MEASURE streams one line per part as each result
// is known, so the client's per-line I/O deadline bounds the wait for one
// part's measurement, never the batch's length; an ERR line ends the
// reply early, and a rejected part is named ("part 3: ..."). Each reply
// write has its own deadline on the daemon, so a session that stops
// reading is closed rather than left blocked in a write. An ERR reply
// leaves the session usable: the daemon reads a request's parts in full
// before it validates anything, so a rejected request never leaves
// assembly lines in the stream. A line longer than the limit closes the
// session, and so does a part header whose line count (its fourth field)
// cannot be read, or a MEASURE or MONITOR part count that cannot be read
// or exceeds its cap (MaxMeasureParts; 16 for MONITOR): nothing then
// tells where the request ends. Requests stay under maxLineLen; replies
// may carry a whole sweep or spectrum on one line and are bounded by the
// larger maxReplyLen — a reply is a fixed number of lines known from its
// request, so every command stays a strict request/response exchange.
//
// Every measurement verb maps to one backend operation with the same
// arguments, and every command is a content-deterministic read that
// changes nothing on the rig (see internal/detrand), which is what makes
// the client's retry-after-reconnect safe even when a reply was lost
// after the target executed the command.
package lab

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// reply codes.
const (
	replyOK  = "OK"
	replyErr = "ERR"
)

// ProtocolVersion is the protocol revision this package speaks. Daemon and
// workstation are built from the same tree, so there is nothing to
// negotiate: HELLO with any other version is a hard error on both sides.
const ProtocolVersion = 10

// MaxMeasureParts caps the parts one MEASURE carries: a generation-sized
// chunk, small enough that a request stays a bounded amount of work.
const MaxMeasureParts = 256

// maxMonitorParts caps the parts one MONITOR carries, one per domain.
const maxMonitorParts = 16

// Protocol hard limits: a program part may declare at most
// maxProgramLines lines, and no single request or program line may exceed
// maxLineLen bytes — a peer that sends more is desynced or hostile and the
// connection is closed rather than buffering without bound. Replies get the larger
// maxReplyLen because a reply can carry a whole sweep or spectrum.
const (
	maxProgramLines = 10000
	maxLineLen      = 1 << 16
	maxReplyLen     = 1 << 20
)

// writeLine sends one protocol line.
func writeLine(w *bufio.Writer, format string, args ...any) error {
	if _, err := fmt.Fprintf(w, format+"\n", args...); err != nil {
		return err
	}
	return w.Flush()
}

// readLine reads one protocol line without the trailing newline. Lines
// longer than maxLineLen are an error: the stream cannot be resynchronized
// past an oversized line, so callers must drop the connection.
func readLine(r *bufio.Reader) (string, error) {
	return readLineN(r, maxLineLen)
}

// readLineN is readLine with an explicit length bound; the client reads
// replies under maxReplyLen while the server holds requests to maxLineLen.
func readLineN(r *bufio.Reader, limit int) (string, error) {
	var buf [256]byte
	line, err := appendLine(buf[:0], r, limit)
	if err != nil {
		return "", err
	}
	return string(line), nil
}

// appendLine appends one protocol line, without its line ending, to dst.
func appendLine(dst []byte, r *bufio.Reader, limit int) ([]byte, error) {
	start := len(dst)
	for {
		frag, err := r.ReadSlice('\n')
		dst = append(dst, frag...)
		if len(dst)-start > limit {
			return nil, fmt.Errorf("lab: line exceeds %d bytes", limit)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			return nil, err
		}
		for len(dst) > start && (dst[len(dst)-1] == '\n' || dst[len(dst)-1] == '\r') {
			dst = dst[:len(dst)-1]
		}
		return dst, nil
	}
}

// parseReply splits a response into its code and payload.
func parseReply(line string) (ok bool, payload string, err error) {
	switch {
	case line == replyOK:
		return true, "", nil
	case strings.HasPrefix(line, replyOK+" "):
		return true, line[len(replyOK)+1:], nil
	case strings.HasPrefix(line, replyErr+" "):
		return false, line[len(replyErr)+1:], nil
	case line == replyErr:
		return false, "unspecified error", nil
	default:
		return false, "", fmt.Errorf("lab: malformed reply %q", line)
	}
}

// field helpers for payload parsing.

func floatField(fields []string, i int, what string) (float64, error) {
	if i >= len(fields) {
		return 0, fmt.Errorf("lab: missing %s field", what)
	}
	v, err := strconv.ParseFloat(fields[i], 64)
	if err != nil {
		return 0, fmt.Errorf("lab: bad %s %q", what, fields[i])
	}
	return v, nil
}

func intField(fields []string, i int, what string) (int, error) {
	if i >= len(fields) {
		return 0, fmt.Errorf("lab: missing %s field", what)
	}
	v, err := strconv.Atoi(fields[i])
	if err != nil {
		return 0, fmt.Errorf("lab: bad %s %q", what, fields[i])
	}
	return v, nil
}

func int64Field(fields []string, i int, what string) (int64, error) {
	if i >= len(fields) {
		return 0, fmt.Errorf("lab: missing %s field", what)
	}
	v, err := strconv.ParseInt(fields[i], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("lab: bad %s %q", what, fields[i])
	}
	return v, nil
}

// floatFields parses every field as a float (nil for no fields).
func floatFields(fields []string, what string) ([]float64, error) {
	var out []float64
	for i := range fields {
		v, err := floatField(fields, i, what)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
