// Package bitio holds the byte-level framing the TAC formats share:
// unsigned LEB128 varints and length-prefixed byte blocks, as written by
// the Huffman codebook header, the sz payload header and the container and
// archive footers, and the error a truncated frame reads as.
package bitio

import (
	"encoding/binary"
	"errors"
)

// ErrUnexpectedEOF is returned when a read runs past the end of the buffer.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of bit stream")

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
