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
//
// FrameHeader is the header's size. A sender that builds the payload
// behind FrameHeader reserved bytes seals it in place with Seal; Frame
// copies a finished payload into a new frame.
const FrameHeader = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of a byte slice (the checksum used by the
// frame header and the output-file footer).
func Checksum(b []byte) uint32 { return crc32.Checksum(b, crcTable) }

// Frame wraps a payload in a length+checksum header.
func Frame(payload []byte) []byte {
	frame := make([]byte, FrameHeader+len(payload))
	copy(frame[FrameHeader:], payload)
	return Seal(frame)
}

// Seal fills the header reserved in the first FrameHeader bytes of
// frame for the payload that follows it, and returns frame.
func Seal(frame []byte) []byte {
	payload := frame[FrameHeader:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], Checksum(payload))
	return frame
}

// Unframe validates a framed message and returns the payload. Any
// truncation, padding or bit flip — in the header or the payload —
// yields an error.
func Unframe(frame []byte) ([]byte, error) {
	if len(frame) < FrameHeader {
		return nil, fmt.Errorf("mpsim: frame of %d bytes is shorter than its header", len(frame))
	}
	n := int(binary.LittleEndian.Uint32(frame[0:4]))
	if n != len(frame)-FrameHeader {
		return nil, fmt.Errorf("mpsim: frame declares %d payload bytes, carries %d", n, len(frame)-FrameHeader)
	}
	payload := frame[FrameHeader:]
	want := binary.LittleEndian.Uint32(frame[4:8])
	if got := Checksum(payload); got != want {
		return nil, fmt.Errorf("mpsim: frame checksum %#x, want %#x", got, want)
	}
	return payload, nil
}
