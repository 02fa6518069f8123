package bitio

import (
	"errors"
	"testing"
)

func TestVarintHelpers(t *testing.T) {
	var buf []byte
	buf = AppendUvarint(buf, 0)
	buf = AppendUvarint(buf, 1<<40)
	v, n, err := Uvarint(buf)
	if err != nil || v != 0 {
		t.Fatalf("Uvarint = %v, %v", v, err)
	}
	buf = buf[n:]
	v, n, err = Uvarint(buf)
	if err != nil || v != 1<<40 {
		t.Fatalf("Uvarint = %v, %v", v, err)
	}
	if n != len(buf) {
		t.Fatalf("Uvarint consumed %d of %d bytes", n, len(buf))
	}
}

func TestVarintEmpty(t *testing.T) {
	if _, _, err := Uvarint(nil); err == nil {
		t.Fatal("Uvarint(nil) should error")
	}
}

func TestLengthPrefixedBytes(t *testing.T) {
	var buf []byte
	buf = AppendBytes(buf, []byte("hello"))
	buf = AppendBytes(buf, nil)
	buf = AppendBytes(buf, []byte{1, 2, 3})

	blk, n, err := Bytes(buf)
	if err != nil || string(blk) != "hello" {
		t.Fatalf("Bytes #1 = %q, %v", blk, err)
	}
	buf = buf[n:]
	blk, n, err = Bytes(buf)
	if err != nil || len(blk) != 0 {
		t.Fatalf("Bytes #2 = %q, %v", blk, err)
	}
	buf = buf[n:]
	blk, _, err = Bytes(buf)
	if err != nil || len(blk) != 3 {
		t.Fatalf("Bytes #3 = %v, %v", blk, err)
	}
}

func TestBytesTruncated(t *testing.T) {
	var buf []byte
	buf = AppendBytes(buf, []byte("hello"))
	if _, _, err := Bytes(buf[:3]); err == nil {
		t.Fatal("truncated block should error")
	}
}

func TestReaderReadsFieldsInOrder(t *testing.T) {
	buf := AppendUvarint(nil, 7)
	buf = AppendBytes(buf, []byte("block"))
	buf = AppendUvarint(buf, 1<<40)
	buf = append(buf, "tail"...)
	r := NewReader(buf)
	if v := r.Uvarint(7); v != 7 {
		t.Fatalf("Uvarint = %d, want 7", v)
	}
	if b := r.Bytes(); string(b) != "block" {
		t.Fatalf("Bytes = %q", b)
	}
	if v := r.Uvarint(1 << 40); v != 1<<40 {
		t.Fatalf("Uvarint = %d, want 2^40", v)
	}
	if rest := r.Rest(); string(rest) != "tail" || r.Err() != nil {
		t.Fatalf("Rest = %q, Err = %v", rest, r.Err())
	}
}

// TestReaderErrorSticks: the first failure — a value over its bound, or a
// truncated field — is the one Err reports, and every read after it
// returns zero without consuming input.
func TestReaderErrorSticks(t *testing.T) {
	buf := AppendUvarint(nil, 3)
	buf = AppendUvarint(buf, 5)
	buf = AppendBytes(buf, []byte("x"))

	r := NewReader(buf)
	if v := r.Uvarint(2); v != 0 || !errors.Is(r.Err(), ErrRange) {
		t.Fatalf("Uvarint(2) on 3 = %d, %v; want 0, ErrRange", v, r.Err())
	}
	first := r.Err()
	if v, b, rest := r.Uvarint(1<<63), r.Bytes(), r.Rest(); v != 0 || b != nil || rest != nil {
		t.Fatalf("reads after a failure = %d, %q, %q; want zeros", v, b, rest)
	}
	if r.Err() != first {
		t.Fatalf("Err changed from %v to %v", first, r.Err())
	}

	r = NewReader(buf[:2])
	if r.Uvarint(3) != 3 || r.Uvarint(5) != 5 {
		t.Fatal("in-bound reads failed")
	}
	if b := r.Bytes(); b != nil || !errors.Is(r.Err(), ErrUnexpectedEOF) {
		t.Fatalf("Bytes past the end = %q, %v; want nil, ErrUnexpectedEOF", b, r.Err())
	}
	if v := (&Reader{}).Uvarint(1); v != 0 {
		t.Fatalf("zero Reader read %d", v)
	}
}
