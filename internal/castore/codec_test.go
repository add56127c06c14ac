package castore

import (
	"math"
	"testing"
)

func TestCodecRoundtrip(t *testing.T) {
	e := NewEnc(64)
	e.Uint64(0xdeadbeefcafef00d)
	e.Int(-42)
	e.Float64(math.Copysign(0, -1))
	e.Float64(math.NaN())
	e.Float64(1.0 / 3.0)
	e.Float64(math.Inf(1))

	d := NewDec(e.Bytes())
	if got := d.Uint64(); got != 0xdeadbeefcafef00d {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := d.Int(); got != -42 {
		t.Errorf("Int = %d", got)
	}
	if got := d.Float64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("negative zero lost: %v (bits %#x)", got, math.Float64bits(got))
	}
	if got := d.Float64(); !math.IsNaN(got) {
		t.Errorf("NaN lost: %v", got)
	}
	if got := d.Float64(); got != 1.0/3.0 {
		t.Errorf("Float64 = %v", got)
	}
	if got := d.Float64(); !math.IsInf(got, 1) {
		t.Errorf("+Inf lost: %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestCodecTruncation(t *testing.T) {
	e := NewEnc(24)
	e.Float64(1)
	e.Float64(2)
	e.Float64(3)
	full := e.Bytes()
	// Every strict prefix must decode to a sticky error, never panic.
	for n := 0; n < len(full); n++ {
		d := NewDec(full[:n])
		for i := 0; i < 3; i++ {
			d.Float64()
		}
		if err := d.Finish(); err != ErrTruncated {
			t.Errorf("prefix len %d: Finish = %v, want ErrTruncated", n, err)
		}
	}
}

func TestCodecTrailingBytes(t *testing.T) {
	e := NewEnc(16)
	e.Uint64(1)
	e.Uint64(2)
	d := NewDec(e.Bytes())
	d.Uint64()
	if err := d.Finish(); err != ErrTrailing {
		t.Fatalf("Finish = %v, want ErrTrailing", err)
	}
}

func TestCodecStickyError(t *testing.T) {
	d := NewDec([]byte{1, 2, 3})
	d.Uint64()
	// Every subsequent read returns zero values without panicking, and the
	// first error sticks.
	if d.Int() != 0 || d.Float64() != 0 || d.Uint64() != 0 {
		t.Error("reads after error returned non-zero values")
	}
	if err := d.Finish(); err != ErrTruncated {
		t.Fatalf("Finish = %v, want ErrTruncated", err)
	}
}
