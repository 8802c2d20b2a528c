package mpsim

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Message framing: every payload that must survive an unreliable path
// (merge complexes in flight, output blocks at rest) is wrapped in an
// 8-byte header of length and CRC32C checksum, so the receiver rejects
// truncation and bit corruption instead of deserializing garbage.
//
//	length u32 | crc32c(payload) u32 | payload
const frameHeader = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of a byte slice (the checksum used by the
// frame header and the output-file footer).
func Checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// Frame wraps a payload in a length+checksum header.
func Frame(payload []byte) []byte {
	out := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], Checksum(payload))
	copy(out[frameHeader:], payload)
	return out
}

// Unframe validates a framed message and returns the payload. Any
// truncation, padding or bit flip — in the header or the payload —
// yields an error.
func Unframe(frame []byte) ([]byte, error) {
	if len(frame) < frameHeader {
		return nil, fmt.Errorf("mpsim: frame of %d bytes is shorter than its header", len(frame))
	}
	n := int(binary.LittleEndian.Uint32(frame[0:4]))
	if n != len(frame)-frameHeader {
		return nil, fmt.Errorf("mpsim: frame declares %d payload bytes, carries %d", n, len(frame)-frameHeader)
	}
	payload := frame[frameHeader:]
	want := binary.LittleEndian.Uint32(frame[4:8])
	if got := Checksum(payload); got != want {
		return nil, fmt.Errorf("mpsim: frame checksum %#x, want %#x", got, want)
	}
	return payload, nil
}
