package lab

import (
	"errors"
	"fmt"
)

// TargetError is an "ERR ..." reply from the daemon: the command reached
// the target intact and was rejected (unknown domain, out-of-range
// argument, nothing loaded, ...). Target errors are never retried — the
// transport is healthy; the request itself is wrong.
type TargetError struct {
	Msg string
}

// Error implements error.
func (e *TargetError) Error() string { return "lab: target error: " + e.Msg }

// IsTargetError reports whether err is (or wraps) a target-side ERR reply,
// as opposed to a transport failure (timeout, dropped connection,
// corrupted reply) that the client retries transparently.
func IsTargetError(err error) bool {
	var te *TargetError
	return errors.As(err, &te)
}

// transportError marks a failure where the integrity of the byte stream is
// suspect — an I/O error, a deadline expiry, a malformed reply line or an
// unparseable payload. The only safe recovery is dropping the connection,
// reconnecting and resending the request, which is exactly what the
// client's retry loop does for these.
type transportError struct {
	op  string
	err error
}

func (e *transportError) Error() string { return fmt.Sprintf("lab: %s: %v", e.op, e.err) }
func (e *transportError) Unwrap() error { return e.err }

// ErrClosed is returned by operations on a closed Client or Pool.
var ErrClosed = errors.New("lab: client closed")

// ErrServerClosed is returned by Server.Serve after Shutdown.
var ErrServerClosed = errors.New("lab: server closed")
