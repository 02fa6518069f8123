package amr

import (
	"io"
	"unsafe"
)

// Values travel as little-endian float32 — in level and ROI response
// bodies and in the .amr stream's block payload. This file is the one
// place that knows a []Value is already that on a little-endian host; it
// holds the repository's only use of unsafe.

// hostLittleEndian reports the byte order the process runs on.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// hostBytes returns the memory of vals as bytes, in host order. The result
// aliases vals.
func hostBytes(vals []Value) []byte {
	if len(vals) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), ValueBytes*len(vals))
}

// swapWords reverses the bytes of every 4-byte word of b in place. Any
// tail shorter than a word is left alone.
func swapWords(b []byte) {
	for i := 0; i+ValueBytes <= len(b); i += ValueBytes {
		b[i], b[i+1], b[i+2], b[i+3] = b[i+3], b[i+2], b[i+1], b[i]
	}
}

// WireBytes returns the memory of vals as little-endian float32 wire
// bytes. On a little-endian host that is a reinterpretation and costs
// nothing; on a big-endian host every value is byte-swapped in place
// first. Either way the result aliases vals, so vals must belong to the
// caller, who on a big-endian host is left with wire order in it: this is
// the form for a buffer that is sent and then overwritten.
func WireBytes(vals []Value) []byte {
	b := hostBytes(vals)
	if !hostLittleEndian {
		swapWords(b)
	}
	return b
}

// PutValues writes vals to the front of dst as little-endian float32
// without touching vals — the form for values the caller does not own,
// such as blocks shared through a cache. dst must hold at least
// ValueBytes*len(vals) bytes; PutValues returns the number written.
func PutValues(dst []byte, vals []Value) int {
	n := ValueBytes * len(vals)
	dst = dst[:n]
	copy(dst, hostBytes(vals))
	if !hostLittleEndian {
		swapWords(dst)
	}
	return n
}

// readValues fills vals from little-endian float32 wire bytes read off r.
func readValues(r io.Reader, vals []Value) error {
	b := hostBytes(vals)
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	if !hostLittleEndian {
		swapWords(b)
	}
	return nil
}
