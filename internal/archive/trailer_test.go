package archive

import (
	"bytes"
	"testing"
)

// The names the rest of the suite knows the five layouts by. The lengths
// are literals on purpose — TestTrailerKinds holds the table to them, so a
// table edit that moves a byte of an existing layout fails here first.
const (
	trailerLen  = 16 // TACAEND1: footer length + magic
	trailer2Len = 24 // TACAEND2: footer length + generation + magic
	trailer3Len = 24 // TACAEND3: the same words over the v2 (delta-bearing) footer
	trailer4Len = 24 // TACAEND4: the same words over the v3 (checksummed) footer
	trailer5Len = 28 // TACAEND5: footer length + generation + footer CRC32C + magic
)

var (
	trailerMagic  = trailerKinds[0].magic
	trailer2Magic = trailerKinds[1].magic
	trailer3Magic = trailerKinds[2].magic
	trailer4Magic = trailerKinds[3].magic
	trailer5Magic = trailerKinds[4].magic
)

// TestTrailerKinds pins every trailer layout the format has as literal
// bytes — what Commit writes (the v4 rows) and what the legacy writers
// wrote for each footer version and generation — and reads each back
// through the magic lookup and parseTrailer.
func TestTrailerKinds(t *testing.T) {
	footer := []byte{0xde, 0xad, 0xbe}
	cases := []struct {
		name string
		ver  int
		gen  uint64
		size int64
		want string
	}{
		{"v1 first commit", 1, 0, trailerLen, "\x03\x00\x00\x00\x00\x00\x00\x00" + "TACAEND1"},
		{"v1 appended", 1, 7, trailer2Len, "\x03\x00\x00\x00\x00\x00\x00\x00" + "\x07\x00\x00\x00\x00\x00\x00\x00" + "TACAEND2"},
		{"v2 delta", 2, 7, trailer3Len, "\x03\x00\x00\x00\x00\x00\x00\x00" + "\x07\x00\x00\x00\x00\x00\x00\x00" + "TACAEND3"},
		{"v2 delta first commit", 2, 0, trailer3Len, "\x03\x00\x00\x00\x00\x00\x00\x00" + "\x00\x00\x00\x00\x00\x00\x00\x00" + "TACAEND3"},
		{"v3 frame digests", 3, 7, trailer4Len, "\x03\x00\x00\x00\x00\x00\x00\x00" + "\x07\x00\x00\x00\x00\x00\x00\x00" + "TACAEND4"},
		{"v4 footer digest", 4, 7, trailer5Len, "\x03\x00\x00\x00\x00\x00\x00\x00" + "\x07\x00\x00\x00\x00\x00\x00\x00" + "\x5f\xcb\x33\x9d" + "TACAEND5"},
		{"v4 footer digest first commit", 4, 0, trailer5Len, "\x03\x00\x00\x00\x00\x00\x00\x00" + "\x00\x00\x00\x00\x00\x00\x00\x00" + "\x5b\xce\x6a\x67" + "TACAEND5"},
	}
	seen := map[*trailerKind]bool{}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := trailerByMagic([8]byte([]byte(c.want[len(c.want)-8:])))
			if k == nil || k.ver != c.ver {
				t.Fatalf("magic %q looked up %+v, want footer version %d", c.want[len(c.want)-8:], k, c.ver)
			}
			if (k == currentTrailer) != (c.ver == 4) {
				t.Fatalf("footer version %d: the writer's layout is %+v", c.ver, currentTrailer)
			}
			seen[k] = true
			// Appended after other bytes: the digest covers this trailer's
			// words only.
			got := appendTrailer([]byte("frames"), k, footer, c.gen)[len("frames"):]
			if !bytes.Equal(got, []byte(c.want)) {
				t.Fatalf("trailer % x, want % x", got, c.want)
			}
			if k.size() != c.size || int64(len(got)) != c.size {
				t.Fatalf("size() %d, wrote %d bytes, want %d", k.size(), len(got), c.size)
			}
			flen, gen, sum := parseTrailer(k, got)
			if flen != uint64(len(footer)) || gen != c.gen {
				t.Fatalf("parsed footer length %d generation %d, want %d and %d", flen, gen, len(footer), c.gen)
			}
			if k.digest != (c.ver == 4) {
				t.Fatalf("footer version %d: digest flag %v", c.ver, k.digest)
			}
			if k.digest && sum != footerDigest(footer, got[:16]) {
				t.Fatalf("recorded digest %08x does not verify", sum)
			}
		})
	}
	if len(seen) != len(trailerKinds) {
		t.Fatalf("cases reached %d of the table's %d layouts", len(seen), len(trailerKinds))
	}
	if k := trailerByMagic([8]byte{'T', 'A', 'C', 'A', 'E', 'N', 'D', '6'}); k != nil {
		t.Fatalf("unknown magic looked up %+v", k)
	}
}
