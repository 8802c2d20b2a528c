package merge

import (
	"bytes"
	"testing"

	"parms/internal/cube"
	"parms/internal/gradient"
	"parms/internal/grid"
	"parms/internal/mpsim"
	"parms/internal/mscomplex"
	"parms/internal/synth"
)

// framedPayload builds the framed wire form of a real block complex,
// exactly what Execute's phase 1 puts on the network.
func framedPayload(tb testing.TB) []byte {
	tb.Helper()
	vol := synth.Sinusoid(13, 2)
	block := grid.Block{ID: 0, Lo: [3]int{0, 0, 0}, Hi: [3]int{12, 12, 12}}
	f := gradient.Compute(cube.New(vol.Dims, block, vol), nil)
	ms := mscomplex.FromField(f, nil, mscomplex.TraceOptions{}).Complex
	return mpsim.Frame(ms.Serialize())
}

// TestChaosFramedPayloadCorruptionRejected flips every single byte of a
// framed merge payload and tries a spread of truncations: glueMember
// must reject 100% of them — a corrupted complex must never be glued.
func TestChaosFramedPayloadCorruptionRejected(t *testing.T) {
	frame := framedPayload(t)
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x20
		if err := glueMember(mscomplex.New(nil), bad); err == nil {
			t.Fatalf("byte flip at offset %d of %d accepted", i, len(frame))
		}
	}
	for n := 0; n < len(frame); n += 11 {
		if err := glueMember(mscomplex.New(nil), frame[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(frame))
		}
	}
	for _, pad := range []int{1, 8, 4096} {
		padded := append(append([]byte(nil), frame...), make([]byte, pad)...)
		if err := glueMember(mscomplex.New(nil), padded); err == nil {
			t.Fatalf("frame padded by %d bytes accepted", pad)
		}
	}
	if err := glueMember(mscomplex.New(nil), frame); err != nil {
		t.Fatalf("intact frame rejected: %v", err)
	}
}

// FuzzChaosUnframe: for any input that unframes successfully, any
// single-byte flip of it must be rejected (CRC-32C detects all
// single-byte errors; the length field detects resizes).
func FuzzChaosUnframe(f *testing.F) {
	frame := framedPayload(f)
	f.Add(frame, 0, byte(0x01))
	f.Add(frame, 4, byte(0x80))
	f.Add(frame, len(frame)-1, byte(0xff))
	f.Add(mpsim.Frame(nil), 0, byte(0x10))
	f.Fuzz(func(t *testing.T, data []byte, pos int, mask byte) {
		orig, err := mpsim.Unframe(data)
		if err != nil {
			return // not a valid frame to begin with
		}
		if len(data) == 0 || mask == 0 {
			return
		}
		idx := int(uint(pos) % uint(len(data)))
		mutated := append([]byte(nil), data...)
		mutated[idx] ^= mask
		back, err := mpsim.Unframe(mutated)
		if err == nil && !bytes.Equal(mutated, data) {
			t.Fatalf("corrupted frame accepted (flip at %d, mask %#x, payload equal: %v)",
				idx, mask, bytes.Equal(back, orig))
		}
	})
}
