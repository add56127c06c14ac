package castore

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// FuzzDecodeFrame: decoding arbitrary entry bytes never panics; a frame is
// accepted only when its magic, version, key, length and checksum all
// match, and reported stale only when everything but the version does; an
// encoded frame decodes back to its payload bit for bit.
func FuzzDecodeFrame(f *testing.F) {
	good := encodeFrame(3, 0xabcdef, []byte("measured payload"))
	flipped := append([]byte(nil), good...)
	flipped[headerLen+2] ^= 0x10
	f.Add(good, uint16(3), uint64(0xabcdef))
	f.Add(good, uint16(2), uint64(0xabcdef))               // stale version
	f.Add(good, uint16(3), uint64(0xabcdee))               // wrong key
	f.Add(good[:len(good)-1], uint16(3), uint64(0xabcdef)) // torn tail
	f.Add(flipped, uint16(3), uint64(0xabcdef))            // bit rot
	f.Add(encodeFrame(1, 0, nil), uint16(1), uint64(0))
	f.Add([]byte{}, uint16(0), uint64(0))
	f.Fuzz(func(t *testing.T, buf []byte, version uint16, key uint64) {
		payload, st := decodeFrame(buf, version, key)
		switch st {
		case frameOK, frameStale:
			if len(buf) < headerLen+crcLen ||
				binary.LittleEndian.Uint32(buf) != magic ||
				binary.LittleEndian.Uint64(buf[16:]) != uint64(len(buf)-headerLen-crcLen) ||
				binary.LittleEndian.Uint32(buf[len(buf)-crcLen:]) != crc32.Checksum(buf[:len(buf)-crcLen], crcTable) {
				t.Fatalf("status %d for a structurally invalid frame", st)
			}
			gotVersion := binary.LittleEndian.Uint16(buf[4:])
			if st == frameStale {
				if gotVersion == version || payload != nil {
					t.Fatalf("stale frame carries version %d (want other than %d), payload %v", gotVersion, version, payload)
				}
				break
			}
			if gotVersion != version || binary.LittleEndian.Uint64(buf[8:]) != key {
				t.Fatalf("accepted a frame of version %d key %#x for version %d key %#x",
					gotVersion, binary.LittleEndian.Uint64(buf[8:]), version, key)
			}
			if !bytes.Equal(payload, buf[headerLen:len(buf)-crcLen]) {
				t.Fatal("accepted payload is not the frame's body")
			}
		case frameCorrupt:
			if payload != nil {
				t.Fatal("corrupt frame returned a payload")
			}
		default:
			t.Fatalf("unknown status %d", st)
		}

		enc := encodeFrame(version, key, buf)
		got, st := decodeFrame(enc, version, key)
		if st != frameOK || !bytes.Equal(got, buf) {
			t.Fatalf("round trip: status %d, payload equal %v", st, bytes.Equal(got, buf))
		}
		if _, st := decodeFrame(enc, version+1, key); st != frameStale {
			t.Fatalf("other version read as status %d, want stale", st)
		}
		if _, st := decodeFrame(enc, version, key^1); st != frameCorrupt {
			t.Fatalf("other key read as status %d, want corrupt", st)
		}
	})
}
