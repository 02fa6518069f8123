package amr

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// loopBytes is the encoding the wire view replaced: one PutUint32 per cell.
func loopBytes(vals []Value) []byte {
	out := make([]byte, ValueBytes*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[ValueBytes*i:], math.Float32bits(v))
	}
	return out
}

// awkwardValues are the bit patterns a conversion through float arithmetic
// would not preserve: NaNs with payloads (quiet and signalling), both
// zeros, denormals, the extremes.
func awkwardValues() []Value {
	bits := []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x807fffff, 0x00400000, // denormals
		0x7fc00000, 0xffc00000, 0x7fc12345, 0x7f800001, 0xffbfffff, // NaN payloads
		0x7f800000, 0xff800000, // ±Inf
		0x7f7fffff, 0x00800000, 0x3f800000, 0xc2f6e979,
	}
	vals := make([]Value, len(bits))
	for i, b := range bits {
		vals[i] = math.Float32frombits(b)
	}
	return vals
}

// TestWireViewMatchesLoop holds every form of the helper to the
// binary.LittleEndian loop, bit for bit, on the values that would show a
// conversion, at every length from empty up.
func TestWireViewMatchesLoop(t *testing.T) {
	all := awkwardValues()
	for n := 0; n <= len(all); n++ {
		vals := append([]Value(nil), all[:n]...)
		want := loopBytes(vals)

		put := make([]byte, len(want)+3)
		if got := PutValues(put, vals); got != len(want) || !bytes.Equal(put[:got], want) {
			t.Fatalf("n=%d: PutValues wrote %d bytes %x, want %x", n, got, put[:got], want)
		}
		if !bytes.Equal(loopBytes(vals), want) {
			t.Fatalf("n=%d: PutValues changed its source", n)
		}

		back := make([]Value, n)
		if err := readValues(bytes.NewReader(want), back); err != nil {
			t.Fatalf("n=%d: readValues: %v", n, err)
		}
		if !bytes.Equal(loopBytes(back), want) {
			t.Fatalf("n=%d: readValues gave %x, want %x", n, loopBytes(back), want)
		}

		view := WireBytes(vals)
		if !bytes.Equal(view, want) {
			t.Fatalf("n=%d: WireBytes %x, want %x", n, view, want)
		}
		if n > 0 && &view[0] != &hostBytes(vals)[0] {
			t.Fatalf("n=%d: WireBytes copied instead of viewing", n)
		}
	}
	if err := readValues(bytes.NewReader(make([]byte, 7)), make([]Value, 2)); err == nil {
		t.Fatal("readValues accepted a short source")
	}
}

// TestSwapWords drives the branch a little-endian host never takes: the
// host-order bytes of a value, swapped, are its other-endian encoding, the
// swap undoes itself, and a tail shorter than a word is left alone.
func TestSwapWords(t *testing.T) {
	vals := awkwardValues()
	b := append([]byte(nil), hostBytes(vals)...)
	swapWords(b)
	for i, v := range vals {
		var want [ValueBytes]byte
		if hostLittleEndian {
			binary.BigEndian.PutUint32(want[:], math.Float32bits(v))
		} else {
			binary.LittleEndian.PutUint32(want[:], math.Float32bits(v))
		}
		if !bytes.Equal(b[ValueBytes*i:ValueBytes*(i+1)], want[:]) {
			t.Fatalf("value %d (%08x): swapped to %x, want %x", i, math.Float32bits(v), b[ValueBytes*i:ValueBytes*(i+1)], want)
		}
	}
	swapWords(b)
	if !bytes.Equal(b, hostBytes(vals)) {
		t.Fatal("swapWords twice is not the identity")
	}
	swapWords(nil)
	odd := []byte{1, 2, 3, 4, 5, 6, 7}
	swapWords(odd)
	if !bytes.Equal(odd, []byte{4, 3, 2, 1, 5, 6, 7}) {
		t.Fatalf("partial word touched: %v", odd)
	}
}
