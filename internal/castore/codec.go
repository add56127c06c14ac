package castore

// Binary codec for store payloads: little-endian 64-bit words, no
// reflection. The consumer namespace (batch measurements) encodes with Enc
// and decodes with Dec; a truncated or malformed payload poisons the
// decoder instead of panicking, so a corrupt entry that slipped past the
// frame checksum still degrades to a cache miss rather than a crash.

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrTruncated is the sticky error a Dec reports when a read runs past the
// end of the payload.
var ErrTruncated = errors.New("castore: truncated payload")

// ErrTrailing is the error Finish reports when decoding consumed less than
// the full payload (a codec/version mismatch the frame checksum cannot see).
var ErrTrailing = errors.New("castore: trailing bytes after payload")

// Enc accumulates an encoded payload.
type Enc struct {
	buf []byte
}

// NewEnc returns an encoder with the given size hint.
func NewEnc(sizeHint int) *Enc {
	return &Enc{buf: make([]byte, 0, sizeHint)}
}

// Uint64 appends one 64-bit word.
func (e *Enc) Uint64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// Int appends an integer as a 64-bit word.
func (e *Enc) Int(v int) { e.Uint64(uint64(int64(v))) }

// Float64 appends the IEEE-754 bits of f, so a decode reproduces the value
// bit-exactly (including NaN payloads and signed zeros).
func (e *Enc) Float64(f float64) { e.Uint64(math.Float64bits(f)) }

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.buf }

// Dec reads an encoded payload back. The zero value is not useful; build
// with NewDec. After the reads, check Finish: a decode that errored or left
// trailing bytes must be treated as a miss.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over the payload.
func NewDec(payload []byte) *Dec { return &Dec{buf: payload} }

// Uint64 reads one 64-bit word.
func (d *Dec) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.err = ErrTruncated
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Int reads an integer.
func (d *Dec) Int() int { return int(int64(d.Uint64())) }

// Float64 reads a float bit-exactly.
func (d *Dec) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Finish reports whether the decode consumed the payload exactly: no read
// error and no trailing bytes.
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return ErrTrailing
	}
	return nil
}
