package amr

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/grid"
)

// validSnapshot serializes a small two-level dataset.
func validSnapshot(t testing.TB) []byte {
	t.Helper()
	ds := &Dataset{Name: "corrupt-test", Field: "baryon_density", Ratio: 2}
	// Fine 16³/ub 2 (mask 8³), coarse 8³/ub 2 (mask 4³): each coarse block
	// projects onto 2³ fine blocks, so refining coarse blocks (0,0,0) and
	// (1,1,1) into their eight fine blocks tiles the domain exactly.
	fine := NewLevel(grid.Dims{X: 16, Y: 16, Z: 16}, 2)
	coarse := NewLevel(grid.Dims{X: 8, Y: 8, Z: 8}, 2)
	coarse.Mask.Fill(true)
	for _, cb := range [][3]int{{0, 0, 0}, {1, 1, 1}} {
		coarse.Mask.Set(cb[0], cb[1], cb[2], false)
		for dx := 0; dx < 2; dx++ {
			for dy := 0; dy < 2; dy++ {
				for dz := 0; dz < 2; dz++ {
					fine.Mask.Set(2*cb[0]+dx, 2*cb[1]+dy, 2*cb[2]+dz, true)
				}
			}
		}
	}
	for i := range fine.Grid.Data {
		fine.Grid.Data[i] = float32(i)
	}
	for i := range coarse.Grid.Data {
		coarse.Grid.Data[i] = float32(2 * i)
	}
	ds.Levels = []*Level{fine, coarse}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mustErr decodes blob expecting an error; any panic is converted into a
// test failure naming the case.
func mustErr(t *testing.T, name string, blob []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: ReadFrom panicked: %v", name, r)
		}
	}()
	if _, err := ReadFrom(bytes.NewReader(blob)); err == nil {
		t.Errorf("%s: corrupted snapshot accepted", name)
	}
}

func TestReadFromRejectsBadMagic(t *testing.T) {
	blob := validSnapshot(t)
	bad := append([]byte(nil), blob...)
	copy(bad, "NOPE")
	mustErr(t, "bad magic", bad)
}

func TestReadFromRejectsUnsupportedVersion(t *testing.T) {
	blob := validSnapshot(t)
	bad := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(bad[4:], 999)
	mustErr(t, "unsupported version", bad)
}

func TestReadFromRejectsTruncation(t *testing.T) {
	blob := validSnapshot(t)
	// Every strict prefix must fail cleanly — header, mask, and value
	// truncations alike.
	for _, n := range []int{0, 3, 4, 7, 8, 11, 20, len(blob) / 2, len(blob) - 1} {
		mustErr(t, "truncated", blob[:n])
	}
}

func TestReadFromRejectsOversizedStringLength(t *testing.T) {
	blob := validSnapshot(t)
	bad := append([]byte(nil), blob...)
	// The name length field sits right after magic+version.
	binary.LittleEndian.PutUint32(bad[8:], 1<<30)
	mustErr(t, "oversized name length", bad)
}

func TestReadFromRejectsImplausibleLevelCount(t *testing.T) {
	blob := validSnapshot(t)
	// Locate the level-count field: magic(4) + version(4) + name + field +
	// ratio(4), where each string is 4-byte length + bytes.
	nameLen := int(binary.LittleEndian.Uint32(blob[8:]))
	fieldOff := 12 + nameLen
	fieldLen := int(binary.LittleEndian.Uint32(blob[fieldOff:]))
	nlevOff := fieldOff + 4 + fieldLen + 4
	for _, nlev := range []uint32{0, 17, 1 << 31} {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(bad[nlevOff:], nlev)
		mustErr(t, "implausible level count", bad)
	}
}

func TestReadFromRejectsCorruptGeometry(t *testing.T) {
	blob := validSnapshot(t)
	nameLen := int(binary.LittleEndian.Uint32(blob[8:]))
	fieldOff := 12 + nameLen
	fieldLen := int(binary.LittleEndian.Uint32(blob[fieldOff:]))
	dimsOff := fieldOff + 4 + fieldLen + 8 // past ratio and level count

	// Oversized declared dims must not trigger a giant allocation or panic.
	bad := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(bad[dimsOff:], 1<<24)
	mustErr(t, "oversized dims", bad)

	// Zero dims.
	bad = append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(bad[dimsOff:], 0)
	mustErr(t, "zero dims", bad)

	// A unit block of zero or one that does not divide the dims used to
	// panic inside NewLevel.
	for _, ub := range []uint32{0, 3, 1 << 20} {
		bad = append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(bad[dimsOff+12:], ub)
		mustErr(t, "bad unit block", bad)
	}
}

func TestReadFromRejectsValueCountMismatch(t *testing.T) {
	blob := validSnapshot(t)
	// The first level's declared value count follows its packed mask. Find
	// it by re-deriving the layout: 8 header + strings + ratio + nlev, then
	// dims(16) + mask bytes for the 2×2×2 block mask (1 byte).
	nameLen := int(binary.LittleEndian.Uint32(blob[8:]))
	fieldOff := 12 + nameLen
	fieldLen := int(binary.LittleEndian.Uint32(blob[fieldOff:]))
	lvlOff := fieldOff + 4 + fieldLen + 8
	nvOff := lvlOff + 16 + 64 // dims+ub, then the packed 8³-bit mask
	for _, nv := range []uint32{0, 1, 1 << 28} {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(bad[nvOff:], nv)
		mustErr(t, "value count mismatch", bad)
	}
}

func TestReadFromRoundTripStillWorks(t *testing.T) {
	blob := validSnapshot(t)
	ds, err := ReadFrom(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name != "corrupt-test" || len(ds.Levels) != 2 {
		t.Fatalf("round trip produced %q with %d levels", ds.Name, len(ds.Levels))
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ds.Field, "density") {
		t.Fatalf("field %q lost", ds.Field)
	}
}

// TestReadFromRefusesWrappingDims: uint32 dims of 1710501719 × 1321312202 ×
// 238597711 multiply to a product that wraps int to 771,130 cells, which a
// plain Count() bound admits. The stream carries what those wrapped dims
// would need — unit block 1, a 96,392-byte zero mask, no values — so only
// an overflow-checked count refuses it.
func TestReadFromRefusesWrappingDims(t *testing.T) {
	d := grid.Dims{X: 1710501719, Y: 1321312202, Z: 238597711}
	if d.Count() != 771130 {
		t.Fatalf("dims %v wrap to %d cells, want 771130", d, d.Count())
	}
	blob := AppendStreamHeader(nil, "wrap", "f", 2, 1)
	for _, v := range []uint32{uint32(d.X), uint32(d.Y), uint32(d.Z), 1} {
		blob = binary.LittleEndian.AppendUint32(blob, v)
	}
	blob = append(blob, make([]byte, (d.Count()+7)/8)...)
	blob = binary.LittleEndian.AppendUint32(blob, 0)
	mustErr(t, "wrapping dims", blob)
}

// TestReadFromAllocatesAsBytesArrive: a 42-byte body — a stream header and
// one level claiming 512×512×256 cells at unit block 256, a 256 MiB grid —
// then EOF, and the same body carried on through the mask and the value
// count. Both must fail having allocated under 1 MiB: nothing is sized
// from the dims before the bytes they imply have arrived.
func TestReadFromAllocatesAsBytesArrive(t *testing.T) {
	head := AppendStreamHeader(nil, "a", "b", 2, 1)
	for _, v := range []uint32{512, 512, 256, 256} {
		head = binary.LittleEndian.AppendUint32(head, v)
	}
	if len(head) != 42 {
		t.Fatalf("body is %d bytes, want 42", len(head))
	}
	withMask := append(slices.Clone(head), 0x0f)                       // all four unit blocks occupied
	withMask = binary.LittleEndian.AppendUint32(withMask, 512*512*256) // and none of their values
	for name, body := range map[string][]byte{"before the mask": head, "before the values": withMask} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFrom(bytes.NewReader(body))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: truncated body accepted", name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: failed with %q after allocating %d bytes, want < 1 MiB", name, err, n)
		}
	}
}
