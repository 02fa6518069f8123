package grid

import (
	"fmt"
	"math/bits"
)

// Mask is a dense boolean occupancy grid, used at unit-block granularity to
// record which blocks of an AMR level hold valid data. Bits are stored
// word-packed (64 per uint64, linear index order, LSB first within each
// word), so Count/Density are popcounts and whole-mask operations move 64
// bits per instruction.
type Mask struct {
	Dim   Dims
	words []uint64
}

// NewMask allocates an all-false mask.
func NewMask(d Dims) *Mask {
	return &Mask{Dim: d, words: make([]uint64, (d.Count()+63)/64)}
}

// Len returns the number of bits in the mask (Dim.Count()).
func (m *Mask) Len() int { return m.Dim.Count() }

// At reports the bit at (x,y,z).
func (m *Mask) At(x, y, z int) bool { return m.AtIndex(m.Dim.Index(x, y, z)) }

// Set stores v at (x,y,z).
func (m *Mask) Set(x, y, z int, v bool) { m.SetIndex(m.Dim.Index(x, y, z), v) }

// AtIndex reports the bit at linear index i.
func (m *Mask) AtIndex(i int) bool { return m.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// SetIndex stores v at linear index i.
func (m *Mask) SetIndex(i int, v bool) {
	if v {
		m.words[i>>6] |= 1 << (uint(i) & 63)
	} else {
		m.words[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// clearTail zeroes the bits past Len() in the final word, preserving the
// popcount invariant after whole-word writes.
func (m *Mask) clearTail() {
	if n := m.Len(); n&63 != 0 && len(m.words) > 0 {
		m.words[len(m.words)-1] &= (1 << (uint(n) & 63)) - 1
	}
}

// Clone returns a deep copy.
func (m *Mask) Clone() *Mask {
	out := NewMask(m.Dim)
	copy(out.words, m.words)
	return out
}

// CopyFrom overwrites m's bits with src's. The dims must match.
func (m *Mask) CopyFrom(src *Mask) {
	if m.Dim != src.Dim {
		panic(fmt.Sprintf("grid: mask dims %v != %v", m.Dim, src.Dim))
	}
	copy(m.words, src.words)
}

// Equal reports whether m and other have the same dims and the same bits.
// The archive's temporal delta mode uses it to decide whether two
// snapshots share an AMR structure at a level (delta frames are only
// legal when the block layouts are bit-identical).
func (m *Mask) Equal(other *Mask) bool {
	if m == other {
		return true
	}
	if m == nil || other == nil || m.Dim != other.Dim {
		return false
	}
	for i, w := range m.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// And intersects m with other in place. The dims must match.
func (m *Mask) And(other *Mask) {
	if m.Dim != other.Dim {
		panic(fmt.Sprintf("grid: mask dims %v != %v", m.Dim, other.Dim))
	}
	for i := range m.words {
		m.words[i] &= other.words[i]
	}
}

// Count returns the number of set bits.
func (m *Mask) Count() int {
	n := 0
	for _, w := range m.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Density returns the fraction of set bits in [0,1].
func (m *Mask) Density() float64 {
	if m.Len() == 0 {
		return 0
	}
	return float64(m.Count()) / float64(m.Len())
}

// OccupiedIndices returns the linear indices of all set bits in row-major
// order (z fastest), which Dim.Coords turns into (x,y,z): the one block
// order of the .amr payload, of TACA frames and of tacd's responses. An
// archived level's index holds the one cached copy (archive.LevelIndex.Ords).
func (m *Mask) OccupiedIndices() []int {
	out := make([]int, 0, m.Count())
	for wi, w := range m.words {
		base := wi << 6
		for w != 0 {
			out = append(out, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// Bools expands the mask into a fresh []bool, one entry per bit — scratch
// for algorithms (like OpST) that mutate a private occupancy copy.
func (m *Mask) Bools() []bool {
	out := make([]bool, m.Len())
	for _, i := range m.OccupiedIndices() {
		out[i] = true
	}
	return out
}

// Fill sets every bit to v.
func (m *Mask) Fill(v bool) {
	var w uint64
	if v {
		w = ^uint64(0)
	}
	for i := range m.words {
		m.words[i] = w
	}
	m.clearTail()
}

// setRange sets the bits of the half-open linear index range [lo,hi) to v,
// whole words at a time.
func (m *Mask) setRange(lo, hi int, v bool) {
	if lo >= hi {
		return
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if loW == hiW {
		if v {
			m.words[loW] |= loMask & hiMask
		} else {
			m.words[loW] &^= loMask & hiMask
		}
		return
	}
	if v {
		m.words[loW] |= loMask
		for i := loW + 1; i < hiW; i++ {
			m.words[i] = ^uint64(0)
		}
		m.words[hiW] |= hiMask
	} else {
		m.words[loW] &^= loMask
		for i := loW + 1; i < hiW; i++ {
			m.words[i] = 0
		}
		m.words[hiW] &^= hiMask
	}
}

// countRange returns the popcount of the half-open linear range [lo,hi).
func (m *Mask) countRange(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if loW == hiW {
		return bits.OnesCount64(m.words[loW] & loMask & hiMask)
	}
	n := bits.OnesCount64(m.words[loW]&loMask) + bits.OnesCount64(m.words[hiW]&hiMask)
	for i := loW + 1; i < hiW; i++ {
		n += bits.OnesCount64(m.words[i])
	}
	return n
}

// FillRegion sets every bit in region r to v.
func (m *Mask) FillRegion(r Region, v bool) {
	for x := r.X0; x < r.X1; x++ {
		for y := r.Y0; y < r.Y1; y++ {
			base := m.Dim.Index(x, y, r.Z0)
			m.setRange(base, base+(r.Z1-r.Z0), v)
		}
	}
}

// CountRegion returns the number of set bits inside region r. For repeated
// queries use a SumTable instead.
func (m *Mask) CountRegion(r Region) int {
	n := 0
	for x := r.X0; x < r.X1; x++ {
		for y := r.Y0; y < r.Y1; y++ {
			base := m.Dim.Index(x, y, r.Z0)
			n += m.countRange(base, base+(r.Z1-r.Z0))
		}
	}
	return n
}

// AppendPacked appends the mask as bit-packed bytes (bit i of the stream is
// byte i/8, bit i%8 — LSB first), the serialization both the container
// format and .amr snapshots store. The packed bytes are the little-endian
// truncation of the backing words, so packing is a straight copy.
func (m *Mask) AppendPacked(dst []byte) []byte {
	nb := (m.Len() + 7) / 8
	for wi := 0; nb > 0; wi++ {
		w := m.words[wi]
		k := min(nb, 8)
		for j := 0; j < k; j++ {
			dst = append(dst, byte(w>>(8*j)))
		}
		nb -= k
	}
	return dst
}

// PackedLen returns the serialized size of AppendPacked's output.
func (m *Mask) PackedLen() int { return (m.Len() + 7) / 8 }

// SetPacked overwrites the mask from packed bytes as written by
// AppendPacked. The input must be exactly PackedLen() bytes; padding bits
// past Len() are ignored.
func (m *Mask) SetPacked(packed []byte) error {
	if len(packed) != m.PackedLen() {
		return fmt.Errorf("grid: packed mask is %d bytes, want %d", len(packed), m.PackedLen())
	}
	for wi := range m.words {
		var w uint64
		for j := 0; j < 8; j++ {
			bi := wi*8 + j
			if bi >= len(packed) {
				break
			}
			w |= uint64(packed[bi]) << (8 * j)
		}
		m.words[wi] = w
	}
	m.clearTail()
	return nil
}

// SumTable is a 3D summed-area table over a mask, answering "how many set
// bits in this box" in O(1). AKDTree's octant counts and the density filter
// both rely on it (Sec. 3.2 of the paper counts non-empty unit blocks for
// every split decision; the table makes every count constant time).
type SumTable struct {
	dim Dims
	// s has extent (X+1)×(Y+1)×(Z+1); s[x][y][z] is the count of set bits
	// in [0,x)×[0,y)×[0,z).
	s []int64
}

// NewSumTable builds the table in one pass over the mask.
func NewSumTable(m *Mask) *SumTable {
	d := m.Dim
	ex, ey, ez := d.X+1, d.Y+1, d.Z+1
	s := make([]int64, ex*ey*ez)
	idx := func(x, y, z int) int { return (x*ey+y)*ez + z }
	for x := 1; x <= d.X; x++ {
		for y := 1; y <= d.Y; y++ {
			var rowSum int64 // running sum along z for this (x,y) row
			base := m.Dim.Index(x-1, y-1, 0)
			for z := 1; z <= d.Z; z++ {
				if m.AtIndex(base + z - 1) {
					rowSum++
				}
				s[idx(x, y, z)] = rowSum +
					s[idx(x-1, y, z)] + s[idx(x, y-1, z)] - s[idx(x-1, y-1, z)]
			}
		}
	}
	return &SumTable{dim: d, s: s}
}

// Dims returns the extent of the underlying mask.
func (t *SumTable) Dims() Dims { return t.dim }

// Count returns the number of set bits in region r (clipped to the mask).
func (t *SumTable) Count(r Region) int64 {
	r = r.Intersect(t.dim)
	if r.Empty() {
		return 0
	}
	ey, ez := t.dim.Y+1, t.dim.Z+1
	idx := func(x, y, z int) int { return (x*ey+y)*ez + z }
	return t.s[idx(r.X1, r.Y1, r.Z1)] -
		t.s[idx(r.X0, r.Y1, r.Z1)] - t.s[idx(r.X1, r.Y0, r.Z1)] - t.s[idx(r.X1, r.Y1, r.Z0)] +
		t.s[idx(r.X0, r.Y0, r.Z1)] + t.s[idx(r.X0, r.Y1, r.Z0)] + t.s[idx(r.X1, r.Y0, r.Z0)] -
		t.s[idx(r.X0, r.Y0, r.Z0)]
}
