package bitio

import "testing"

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
