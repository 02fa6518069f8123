// Package archive implements TACA, a framed, seekable container for
// sequences of TAC-compressed AMR snapshots. Where the in-memory codec
// container (internal/codec) carries one opaque snapshot blob, a TACA
// archive holds many members — one per snapshot × field — laid out so that
//
//   - the Writer streams: members are compressed level by level in
//     fixed-size unit-block batches that go straight to an io.Writer, so a
//     campaign larger than memory never materializes more than the batches
//     currently in flight;
//   - the Reader seeks: a footer index records every member's skeleton
//     (level geometry + occupancy masks) and the byte extent of every
//     block batch, so extracting one member, one refinement level, or one
//     spatial region reads only the index and the covered batches from any
//     io.ReaderAt, safely from many goroutines at once.
//
// File layout, as the writer always commits it (format v4):
//
//	header    "TACA" magic + 1 version byte
//	frames    raw sz block-batch payloads, back to back, in index order
//	footer    varint-coded member index (see appendMemberRecord)
//	trailer   uint64 LE footer length + uint64 LE generation +
//	          uint32 LE footer CRC32C + 8-byte end magic "TACAEND5"
//
// Each frame is an independently decodable sz.CompressBlocks stream over
// up to BatchBlocks occupied unit blocks of one level, in the level's
// block order: Mask.OccupiedIndices, of which LevelIndex.Ords holds the
// one cached copy. Block coordinates are never stored: like the codec
// container, the footer's occupancy masks fully determine which blocks
// the i-th batch of a level covers, so the index costs one bit per unit
// block plus a few varints per batch. A level's dims, unit block and mask
// are the container's level record (codec.MaskDecoder.ReadLevel), and
// AddDataset and Open hold members to one rule (amr.CheckLevel,
// amr.CheckHierarchy).
//
// Integrity: the footer records a CRC32C (Castagnoli) digest of every
// frame, and readers verify the digest of every frame they read before
// any bytes reach the codec, so a flipped bit inside a compressed payload
// surfaces as ErrCorrupt instead of silently wrong field values;
// Reader.ScrubMember audits every frame of a member the same way without
// decoding. The trailer in turn digests the footer bytes and its own
// length and generation words: Open verifies that digest before trusting
// a single index varint, and when the newest footer fails it — a torn or
// bit-flipped index — falls back to the previous committed generation's
// trailer, so index damage degrades the archive to its last good
// generation instead of making it unreadable.
//
// Append and crash safety: an archive grows by appending — new frames go
// after the previous footer+trailer (which are left intact), and the
// grown archive is committed by writing a fresh footer over all members
// followed by a trailer stamped with the next generation, with fsync
// ordering (frames durable before the trailer is written, the trailer
// durable before the commit is acknowledged). Nothing is ever
// overwritten, so a crash at any byte offset leaves the previous
// generation's footer valid: Open first parses the trailer at EOF and, if
// the tail is torn, scans backward for the newest committed generation,
// ignoring (or, in OpenAppend, truncating) the torn tail.
//
// Campaign (delta) mode: when the writer's keyframe interval is on, a
// member may be coded temporally against an earlier member of the same
// field: its frames are sz.CompressBlocksDelta residuals whose reference
// is the RECONSTRUCTION of the referenced member's matching batch. The
// footer records, per member, a dependency link (reference member index +
// generation) and, per batch, a coding-mode flag. Reference links always
// point strictly backward in the member index, so chains terminate by
// construction; the reader resolves them transparently, and keyframes
// every K members bound the depth (see Writer.Keyframe).
//
// Legacy layouts: the writer always commits v4; v1–v3 are read-only legacy
// layouts, which Open reads and OpenAppend upgrades to v4 at the next
// commit. Each is named by its trailer magic:
//
//	v1  uint64 LE footer length + "TACAEND1" (generation 0), or
//	    uint64 LE footer length + uint64 LE generation + "TACAEND2"
//	v2  uint64 LE footer length + uint64 LE generation + "TACAEND3"
//	v3  uint64 LE footer length + uint64 LE generation + "TACAEND4"
//
// The v1 footer is the index without dependency links, mode flags,
// generations or digests; v2 adds the links, flags and generations; v3
// adds the frame digests and is the v4 footer byte for byte, under a
// trailer without the footer digest. Frames of a v1/v2 archive are
// verified only structurally, by decoding them.
package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"repro/internal/amr"
	"repro/internal/bitio"
	"repro/internal/codec"
	"repro/internal/grid"
	"repro/internal/sz"
)

const (
	// Version is the TACA format version this package reads and writes.
	Version = 1
	// DefaultBatchBlocks is the default number of unit blocks per frame:
	// large enough that the shared Huffman codebook amortizes, small
	// enough that a region query decodes little beyond its footprint.
	DefaultBatchBlocks = 64

	headerLen = 5 // "TACA" + version byte
)

var headerMagic = [4]byte{'T', 'A', 'C', 'A'}

// trailerKind is one of the five layouts a committed generation can end
// in (see the package comment): uint64 LE footer length, then the words
// the flags name, then the magic.
type trailerKind struct {
	magic  [8]byte
	ver    int  // footer layout sealed under it, as decodeFooter numbers them
	gen    bool // a uint64 LE generation follows the footer length
	digest bool // a uint32 LE CRC32C of the footer and of the words before it follows those
}

var trailerKinds = [...]trailerKind{
	{magic: [8]byte{'T', 'A', 'C', 'A', 'E', 'N', 'D', '1'}, ver: 1},
	{magic: [8]byte{'T', 'A', 'C', 'A', 'E', 'N', 'D', '2'}, ver: 1, gen: true},
	{magic: [8]byte{'T', 'A', 'C', 'A', 'E', 'N', 'D', '3'}, ver: 2, gen: true},
	{magic: [8]byte{'T', 'A', 'C', 'A', 'E', 'N', 'D', '4'}, ver: 3, gen: true},
	{magic: [8]byte{'T', 'A', 'C', 'A', 'E', 'N', 'D', '5'}, ver: 4, gen: true, digest: true},
}

// minTrailerLen is the shortest layout: footer length + magic.
const minTrailerLen = 16

// size is the layout's length in bytes: what appendTrailer writes.
func (k *trailerKind) size() int64 { return int64(len(appendTrailer(nil, k, nil, 0))) }

// trailerByMagic returns the layout m names, nil if none.
func trailerByMagic(m [8]byte) *trailerKind {
	for i := range trailerKinds {
		if trailerKinds[i].magic == m {
			return &trailerKinds[i]
		}
	}
	return nil
}

// currentTrailer is the layout every commit writes: the v4 footer sealed
// under TACAEND5. The other rows are read-only legacy layouts.
var currentTrailer = &trailerKinds[len(trailerKinds)-1]

// appendTrailer appends the trailer of layout k sealing footer at
// generation gen.
func appendTrailer(dst []byte, k *trailerKind, footer []byte, gen uint64) []byte {
	words := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(footer)))
	if k.gen {
		dst = binary.LittleEndian.AppendUint64(dst, gen)
	}
	if k.digest {
		dst = binary.LittleEndian.AppendUint32(dst, footerDigest(footer, dst[words:]))
	}
	return append(dst, k.magic[:]...)
}

// parseTrailer reads the words of t, a whole trailer of layout k; what k
// does not carry is zero. sum is to be held against footerDigest over the
// footer and the words that precede it in t.
func parseTrailer(k *trailerKind, t []byte) (flen, gen uint64, sum uint32) {
	flen = binary.LittleEndian.Uint64(t)
	if k.gen {
		gen = binary.LittleEndian.Uint64(t[8:])
	}
	if k.digest {
		sum = binary.LittleEndian.Uint32(t[16:])
	}
	return flen, gen, sum
}

// footerDigest seals the footer bytes plus the trailer's length and
// generation words, so a flip anywhere in the index or in the words that
// locate it fails verification.
func footerDigest(footer, words []byte) uint32 {
	return crc32.Update(crc32.Checksum(footer, castagnoli), castagnoli, words)
}

// castagnoli is the CRC32C table frame digests are computed with. The
// Castagnoli polynomial has hardware support (SSE4.2 / ARMv8 CRC) through
// hash/crc32, so checksumming runs at memory speed on the platforms the
// serving layer targets.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// BatchRecord locates one block-batch frame in the archive.
type BatchRecord struct {
	Offset int64 // absolute byte offset of the frame
	Length int64 // frame length in bytes
}

// LevelIndex is the footer record for one refinement level of a member.
type LevelIndex struct {
	Dims        grid.Dims  // cell extent of the level grid
	UnitBlock   int        // edge length of the refinement unit
	Mask        *grid.Mask // occupancy at unit-block granularity
	BatchBlocks int        // unit blocks per batch (last batch may be short)
	Batches     []BatchRecord

	// Delta flags each batch's coding mode: true when frame b is a
	// temporal residual (sz.CompressBlocksDelta) against the matching
	// batch of the member's reference (Member.Ref). nil — the only state
	// a v1 footer can produce — means all-intra.
	Delta []bool

	// Sums holds the CRC32C digest of every batch frame's raw bytes,
	// parallel to Batches. nil — the only state a v1/v2 footer can
	// produce — means the level carries no digests and frame reads are
	// verified structurally only.
	Sums []uint32

	// occupied caches Mask.Count() and ords the block order (Ords), both
	// set by cacheOrder in decodeFooter and the writer's plan, the only
	// builders of indices that frames are read through.
	occupied int
	ords     func() []int
}

// cacheOrder caches the level's occupied count and arms Ords.
func (li *LevelIndex) cacheOrder() {
	li.occupied = li.Mask.Count()
	li.ords = sync.OnceValue(li.Mask.OccupiedIndices)
}

// Ords returns the level's block order, Mask.OccupiedIndices: batch b
// holds the blocks Ords()[BatchSpan(b)]. It is computed on first use and
// shared by every copy of the index; callers must not modify it.
func (li *LevelIndex) Ords() []int { return li.ords() }

// Occupied returns len(Ords()) without computing the order.
func (li *LevelIndex) Occupied() int { return li.occupied }

// batchCount is the number of frames the level's occupied blocks fill.
func (li *LevelIndex) batchCount() int {
	bb := max(li.BatchBlocks, 1) // 0 only on a level without blocks
	return (li.occupied + bb - 1) / bb
}

// sameLayout reports whether levels a and b cover the same blocks batch
// for batch — the same dims, unit block, batch size and mask — which is
// what lets the frames of one be delta-coded against the other's.
func sameLayout(a, b *LevelIndex) bool {
	return a.Dims == b.Dims && a.UnitBlock == b.UnitBlock &&
		a.BatchBlocks == b.BatchBlocks && a.Mask.Equal(b.Mask)
}

// IsDelta reports whether batch b of the level is temporally coded.
func (li *LevelIndex) IsDelta(b int) bool {
	return li.Delta != nil && b < len(li.Delta) && li.Delta[b]
}

// BatchSpan returns the half-open range [lo, hi) of positions in Ords
// that frame b of the level covers. It is the frame-granularity hook the
// serving layer keys its block cache on: batch b of a level always holds
// exactly the blocks with ordinals in this span, in order.
func (li *LevelIndex) BatchSpan(b int) (lo, hi int) {
	lo = b * li.BatchBlocks
	return lo, min(lo+li.BatchBlocks, li.occupied)
}

// blockCount returns the number of occupied blocks batch b covers.
func (li *LevelIndex) blockCount(b int) int {
	lo, hi := li.BatchSpan(b)
	return hi - lo
}

// CompressedBytes returns the total frame bytes of the level.
func (li *LevelIndex) CompressedBytes() int64 {
	var n int64
	for _, b := range li.Batches {
		n += b.Length
	}
	return n
}

// Member is the footer record for one snapshot × field entry.
type Member struct {
	Name  string
	Field string
	Ratio int

	// Compression parameters the member was written with, recorded for
	// listings and provenance; the effective absolute bound of every
	// frame is also baked into its sz header.
	ErrorBound  float64
	Mode        sz.Mode
	QuantBits   int
	LevelScales []float64

	// Ref is the member index this member's delta batches reference, or
	// −1 when the member is fully intra-coded. References always point
	// strictly backward (Ref < the member's own index), so chains
	// terminate; a v1 footer cannot carry Ref ≥ 0.
	Ref int
	// Gen is the archive generation the member was committed in (0 for
	// the initial write). v1 footers do not record it.
	Gen int

	Levels []LevelIndex
}

// IsDelta reports whether any batch of the member is temporally coded.
func (m *Member) IsDelta() bool { return m.Ref >= 0 }

// StoredCells returns the number of cells stored across all levels.
func (m *Member) StoredCells() int {
	n := 0
	for i := range m.Levels {
		li := &m.Levels[i]
		n += li.occupied * li.UnitBlock * li.UnitBlock * li.UnitBlock
	}
	return n
}

// OriginalBytes returns the uncompressed size (4 bytes per stored cell).
func (m *Member) OriginalBytes() int64 { return 4 * int64(m.StoredCells()) }

// CompressedBytes returns the total frame bytes across all levels.
func (m *Member) CompressedBytes() int64 {
	var n int64
	for i := range m.Levels {
		n += m.Levels[i].CompressedBytes()
	}
	return n
}

// appendMemberRecord appends the v4 footer record of member mi. A footer
// is the member count followed by one record per member, and a record's
// bytes depend on nothing but the member — mi is only what a reference is
// checked against — so a footer grows by appending records
// (Writer.footer). Besides the v1 fields the record carries, per member, a
// reference index (+1, 0 = none) and generation after QuantBits, and per
// batch a coding-mode flag varint and then the frame's CRC32C digest
// varint after the batch records: every level must carry digests.
func appendMemberRecord(out []byte, mi int, m *Member) ([]byte, error) {
	out = bitio.AppendBytes(out, []byte(m.Name))
	out = bitio.AppendBytes(out, []byte(m.Field))
	out = bitio.AppendUvarint(out, uint64(m.Ratio))
	out = bitio.AppendUvarint(out, math.Float64bits(m.ErrorBound))
	out = bitio.AppendUvarint(out, uint64(m.Mode))
	out = bitio.AppendUvarint(out, uint64(m.QuantBits))
	if m.Ref >= mi {
		return nil, fmt.Errorf("archive: member %d references member %d (must point strictly backward)", mi, m.Ref)
	}
	out = bitio.AppendUvarint(out, uint64(m.Ref+1)) // −1 (intra) encodes as 0
	out = bitio.AppendUvarint(out, uint64(m.Gen))
	out = bitio.AppendUvarint(out, uint64(len(m.LevelScales)))
	for _, s := range m.LevelScales {
		out = bitio.AppendUvarint(out, math.Float64bits(s))
	}
	out = bitio.AppendUvarint(out, uint64(len(m.Levels)))
	for i := range m.Levels {
		li := &m.Levels[i]
		var err error
		if out, err = codec.AppendLevel(out, li.Dims, li.UnitBlock, li.Mask); err != nil {
			return nil, err
		}
		out = bitio.AppendUvarint(out, uint64(li.BatchBlocks))
		out = bitio.AppendUvarint(out, uint64(len(li.Batches)))
		for _, b := range li.Batches {
			out = bitio.AppendUvarint(out, uint64(b.Offset))
			out = bitio.AppendUvarint(out, uint64(b.Length))
		}
		if li.Delta != nil && len(li.Delta) != len(li.Batches) {
			return nil, fmt.Errorf("archive: member %d level %d has %d delta flags for %d batches", mi, i, len(li.Delta), len(li.Batches))
		}
		for b := range li.Batches {
			var flag uint64
			if li.IsDelta(b) {
				flag = 1
			}
			out = bitio.AppendUvarint(out, flag)
		}
		if len(li.Sums) != len(li.Batches) {
			return nil, fmt.Errorf("archive: member %d level %d has %d checksums for %d batches", mi, i, len(li.Sums), len(li.Batches))
		}
		for _, s := range li.Sums {
			out = bitio.AppendUvarint(out, uint64(s))
		}
	}
	return out, nil
}

// decodeFooter parses the member index at the given footer version: 2
// selects the delta-aware layout (signaled by the TACAEND3 trailer), 3
// additionally reads per-batch CRC32C digests (TACAEND4). The dependency
// links the v2+ layouts carry are validated here so no hostile footer can
// smuggle a cycle, a forward or self reference, or a delta batch whose
// reference has a different AMR structure — every such link is rejected
// before any frame is read. So is a member that breaks the hierarchy or
// the level rule (amr.CheckHierarchy, amr.CheckLevel), whose cell counts
// or refinement powers would wrap the readers' int arithmetic.
func decodeFooter(buf []byte, ver int) ([]Member, error) {
	r := bitio.NewReader(buf)
	nm := r.Uvarint(1 << 20)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("archive: footer member count: %w", err)
	}
	// Every record takes more than a byte: a short footer claiming many
	// members allocates no more than its length.
	members := make([]Member, 0, min(nm, uint64(len(buf))))
	var masks codec.MaskDecoder
	for mi := range int(nm) {
		m := Member{Ref: -1}
		m.Name = string(r.Bytes())
		m.Field = string(r.Bytes())
		m.Ratio = int(r.Uvarint(math.MaxInt))
		m.ErrorBound = math.Float64frombits(r.Uvarint(math.MaxUint64))
		m.Mode = sz.Mode(r.Uvarint(math.MaxUint8))
		m.QuantBits = int(r.Uvarint(math.MaxInt))
		if ver >= 2 {
			// Strictly-backward references are the whole termination
			// argument: no self links, no forward links, and therefore no
			// cycles, regardless of what the footer claims.
			m.Ref = int(r.Uvarint(uint64(mi))) - 1
			m.Gen = int(r.Uvarint(1 << 32))
		}
		for range r.Uvarint(64) {
			m.LevelScales = append(m.LevelScales, math.Float64frombits(r.Uvarint(math.MaxUint64)))
		}
		nlev := int(r.Uvarint(64))
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("archive: member %d: %w", mi, err)
		}
		if err := amr.CheckHierarchy(m.Ratio, nlev); err != nil {
			return nil, fmt.Errorf("archive: member %d: %w", mi, err)
		}
		for li := range nlev {
			l, err := masks.ReadLevel(r)
			if err != nil {
				return nil, fmt.Errorf("archive: member %d level %d: %w", mi, li, err)
			}
			idx := LevelIndex{Dims: l.Dims, UnitBlock: l.UnitBlock, Mask: l.Mask, BatchBlocks: int(r.Uvarint(math.MaxInt))}
			nb := int(r.Uvarint(math.MaxInt))
			if err := r.Err(); err != nil {
				return nil, fmt.Errorf("archive: member %d level %d: %w", mi, li, err)
			}
			idx.cacheOrder()
			if idx.occupied > 0 && idx.BatchBlocks == 0 {
				return nil, fmt.Errorf("archive: member %d level %d has batch size 0", mi, li)
			}
			if want := idx.batchCount(); nb != want {
				return nil, fmt.Errorf("archive: member %d level %d has %d batches, mask implies %d", mi, li, nb, want)
			}
			for b := range nb {
				rec := BatchRecord{Offset: int64(r.Uvarint(math.MaxInt64)), Length: int64(r.Uvarint(math.MaxInt64))}
				if rec.Length == 0 && r.Err() == nil {
					return nil, fmt.Errorf("archive: member %d level %d batch %d is empty", mi, li, b)
				}
				idx.Batches = append(idx.Batches, rec)
			}
			if ver >= 2 {
				for b := range nb {
					if r.Uvarint(1) == 1 {
						if idx.Delta == nil {
							idx.Delta = make([]bool, nb)
						}
						idx.Delta[b] = true
					}
				}
			}
			if ver >= 3 {
				idx.Sums = make([]uint32, nb)
				for b := range nb {
					idx.Sums[b] = uint32(r.Uvarint(math.MaxUint32))
				}
			}
			if err := r.Err(); err != nil {
				return nil, fmt.Errorf("archive: member %d level %d batches: %w", mi, li, err)
			}
			if idx.Delta != nil {
				// A delta batch only decodes against a reference batch
				// covering the same blocks, so the referenced member must
				// carry this level at a bit-identical structure.
				if m.Ref < 0 {
					return nil, fmt.Errorf("archive: member %d level %d has delta batches but no reference member", mi, li)
				}
				ref := &members[m.Ref]
				if ref.Field != m.Field {
					return nil, fmt.Errorf("archive: member %d (field %q) references member %d (field %q)", mi, m.Field, m.Ref, ref.Field)
				}
				if li >= len(ref.Levels) {
					return nil, fmt.Errorf("archive: member %d level %d missing from reference member %d", mi, li, m.Ref)
				}
				if !sameLayout(&ref.Levels[li], &idx) {
					return nil, fmt.Errorf("archive: member %d level %d structure differs from reference member %d", mi, li, m.Ref)
				}
			}
			m.Levels = append(m.Levels, idx)
		}
		members = append(members, m)
	}
	return members, nil
}
