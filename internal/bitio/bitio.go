// Package bitio holds the byte-level framing the TAC formats share:
// unsigned LEB128 varints and length-prefixed byte blocks, as written by
// the Huffman codebook header, the sz payload header and the container and
// archive footers, and the error a truncated frame reads as. A Reader
// parses a run of such fields from untrusted bytes with one error check at
// the end: each read names the largest value it accepts, and the first
// failure sticks.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
)

var (
	// ErrUnexpectedEOF is returned when a read runs past the end of the buffer.
	ErrUnexpectedEOF = errors.New("bitio: unexpected end of bit stream")
	// ErrRange is a Reader's error for a value above the bound its read set.
	ErrRange = errors.New("bitio: value out of range")
)

// AppendUvarint appends x to dst in unsigned LEB128 form.
func AppendUvarint(dst []byte, x uint64) []byte {
	return binary.AppendUvarint(dst, x)
}

// Uvarint decodes an unsigned varint from buf, returning the value and the
// number of bytes consumed, or an error if the buffer is malformed.
func Uvarint(buf []byte) (uint64, int, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, ErrUnexpectedEOF
	}
	return v, n, nil
}

// AppendBytes appends a length-prefixed byte block to dst.
func AppendBytes(dst, block []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(block)))
	return append(dst, block...)
}

// Bytes reads a length-prefixed byte block, returning the block and the
// total bytes consumed.
func Bytes(buf []byte) ([]byte, int, error) {
	n, hdr, err := Uvarint(buf)
	if err != nil {
		return nil, 0, err
	}
	if uint64(len(buf)-hdr) < n {
		return nil, 0, ErrUnexpectedEOF
	}
	return buf[hdr : hdr+int(n)], hdr + int(n), nil
}

// Reader reads varints and length-prefixed blocks off the front of a byte
// slice. Its first failure — a truncated or malformed field, or a value
// above the bound of its read — sticks: every later read returns zero, and
// Err reports the failure. The zero value reads an empty slice.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Uvarint reads a varint no larger than max.
func (r *Reader) Uvarint(max uint64) uint64 {
	if r.err != nil {
		return 0
	}
	v, n, err := Uvarint(r.buf)
	if err == nil && v > max {
		err = fmt.Errorf("%w: %d > %d", ErrRange, v, max)
	}
	if err != nil {
		r.err = err
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Bytes reads a length-prefixed block. It aliases the Reader's slice.
func (r *Reader) Bytes() []byte {
	if r.err != nil {
		return nil
	}
	b, n, err := Bytes(r.buf)
	if err != nil {
		r.err = err
		return nil
	}
	r.buf = r.buf[n:]
	return b
}

// Rest returns the bytes not yet read, nil after a failure.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	return r.buf
}

// Err returns the first failure, nil if every read so far succeeded.
func (r *Reader) Err() error { return r.err }
