package pario

import (
	"encoding/binary"
	"fmt"

	"parms/internal/mpsim"
	"parms/internal/mscomplex"
)

// Merge-round checkpoints reuse the PCSFM2 output framing with exactly
// one index entry: a group root persists its round-k merged complex as
//
//	payload | footer (1 entry) | trailer
//
// so the recovery path can validate a candidate with the same payload
// and footer CRCs the final output uses, and fall back to recompute on
// any mismatch. One file per (round, root block) keeps writes
// independent — no collective synchronization in the hot merge loop.

// CheckpointName returns the shared-filesystem path of the checkpoint
// a group root writes for its block after the given merge round.
func CheckpointName(dir string, round, block int) string {
	return fmt.Sprintf("%s/round%03d/block%06d.msc", dir, round, block)
}

// EncodeCheckpoint frames one merged complex as a single-entry PCSFM2
// file ready to be written at offset 0.
//
// The footer's length depends on the region's length alone, not on the
// values it records, so the image is allocated once: the footer's bytes
// are reserved in front of the payload, the payload then slides down
// over them and the footer is written behind it.
func EncodeCheckpoint(block int, ms *mscomplex.Complex) []byte {
	entry := IndexEntry{BlockID: int32(block), Offset: 0, Region: ms.Region}
	footerLen := len(EncodeFooter([]IndexEntry{entry}))
	image := ms.AppendSerialized(make([]byte, footerLen))
	payload := image[:copy(image, image[footerLen:])]
	entry.Size = int64(len(payload))
	entry.CRC = mpsim.Checksum(payload)
	copy(image[len(payload):], EncodeFooter([]IndexEntry{entry}))
	return image
}

// DecodeCheckpoint parses, CRC-verifies and deserializes a checkpoint
// file image. It returns the block id recorded in the footer and the
// restored complex. Any framing damage — truncation, bad magic, CRC
// mismatch of footer or payload, out-of-range offsets — is an error,
// never a panic: the bytes come from storage a fault plan may have
// bit-flipped.
func DecodeCheckpoint(data []byte) (int, *mscomplex.Complex, error) {
	size := int64(len(data))
	if size < trailerLen {
		return 0, nil, fmt.Errorf("pario: checkpoint too small (%d bytes)", size)
	}
	tail := data[size-trailerLen:]
	footerLen := int64(binary.LittleEndian.Uint64(tail[0:8]))
	footerCRC := binary.LittleEndian.Uint32(tail[8:12])
	if magic := binary.LittleEndian.Uint64(tail[12:20]); magic != outputMagic {
		return 0, nil, fmt.Errorf("pario: bad checkpoint magic %#x", magic)
	}
	if footerLen < 4 || footerLen > size-trailerLen {
		return 0, nil, fmt.Errorf("pario: bad checkpoint footer length %d", footerLen)
	}
	raw := data[size-trailerLen-footerLen : size-trailerLen]
	if got := mpsim.Checksum(raw); got != footerCRC {
		return 0, nil, fmt.Errorf("pario: checkpoint footer checksum mismatch: %#x != %#x", got, footerCRC)
	}
	entries, err := decodeFooterEntries(raw)
	if err != nil {
		return 0, nil, err
	}
	if len(entries) != 1 {
		return 0, nil, fmt.Errorf("pario: checkpoint has %d index entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Offset != 0 || e.Size < 0 || e.Size > size-trailerLen-footerLen {
		return 0, nil, fmt.Errorf("pario: checkpoint payload [%d,%d) out of bounds", e.Offset, e.Offset+e.Size)
	}
	payload := data[e.Offset : e.Offset+e.Size]
	if e.CRC != 0 {
		if got := mpsim.Checksum(payload); got != e.CRC {
			return 0, nil, fmt.Errorf("pario: checkpoint payload checksum mismatch for block %d: %#x != %#x", e.BlockID, got, e.CRC)
		}
	}
	ms, err := mscomplex.Deserialize(payload)
	if err != nil {
		return 0, nil, err
	}
	return int(e.BlockID), ms, nil
}

// decodeFooterEntries parses CRC-verified footer bytes with explicit
// bounds checks, so a footer whose CRC happens to validate (e.g. a
// hand-crafted fuzz input) still cannot drive reads past the buffer.
func decodeFooterEntries(raw []byte) ([]IndexEntry, error) {
	off := 0
	u32 := func() (uint32, bool) {
		if off+4 > len(raw) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(raw[off:])
		off += 4
		return v, true
	}
	u64 := func() (uint64, bool) {
		if off+8 > len(raw) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(raw[off:])
		off += 8
		return v, true
	}
	truncated := fmt.Errorf("pario: truncated footer")
	n, ok := u32()
	if !ok {
		return nil, truncated
	}
	count := int(n)
	// Each entry is at least 24 bytes; reject counts the buffer cannot
	// possibly hold before allocating.
	if count < 0 || count > len(raw)/24 {
		return nil, fmt.Errorf("pario: footer entry count %d exceeds footer size", count)
	}
	entries := make([]IndexEntry, 0, count)
	for i := 0; i < count; i++ {
		var e IndexEntry
		id, ok1 := u32()
		eo, ok2 := u64()
		es, ok3 := u64()
		crc, ok4 := u32()
		nr, ok5 := u32()
		if !ok1 || !ok2 || !ok3 || !ok4 || !ok5 {
			return nil, truncated
		}
		e.BlockID = int32(id)
		e.Offset = int64(eo)
		e.Size = int64(es)
		e.CRC = crc
		nRegion := int(nr)
		if nRegion < 0 || nRegion > (len(raw)-off)/4 {
			return nil, fmt.Errorf("pario: footer region count %d exceeds footer size", nRegion)
		}
		e.Region = make([]int32, nRegion)
		for j := range e.Region {
			v, ok := u32()
			if !ok {
				return nil, truncated
			}
			e.Region[j] = int32(v)
		}
		entries = append(entries, e)
	}
	return entries, nil
}
