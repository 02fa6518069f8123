package archive

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// runsReader is a Reader over a hand-laid index of one level per member,
// for the planner alone: member 0 is intra, frames [10,20) [20,30) [40,50);
// member 1 references it, frames [50,60) [60,70) [70,80), so its first frame
// starts where member 0's last one ends; member 2 references member 1,
// frames [80,90) [90,100) [100,110), the last of them intra.
func runsReader(t *testing.T) (*Reader, []byte, *callCounter) {
	t.Helper()
	blob := make([]byte, 128)
	for i := range blob {
		blob[i] = byte(i)
	}
	member := func(ref int, offs []int64, delta []bool) Member {
		var recs []BatchRecord
		for _, off := range offs {
			recs = append(recs, BatchRecord{Offset: off, Length: 10})
		}
		return Member{Ref: ref, Levels: []LevelIndex{{Batches: recs, Delta: delta}}}
	}
	cc := &callCounter{r: bytes.NewReader(blob)}
	return &Reader{r: cc, size: int64(len(blob)), members: []Member{
		member(-1, []int64{10, 20, 40}, nil),
		member(0, []int64{50, 60, 70}, []bool{true, true, true}),
		member(1, []int64{80, 90, 100}, []bool{true, true, false}),
	}}, blob, cc
}

// callCounter counts the ReadAt calls made through it.
type callCounter struct {
	r     io.ReaderAt
	calls atomic.Int64
}

func (c *callCounter) ReadAt(p []byte, off int64) (int, error) {
	c.calls.Add(1)
	return c.r.ReadAt(p, off)
}

// spans records the member and [off, end) of every read it is handed,
// served from blob.
type spans struct {
	blob []byte
	got  []string
}

func (s *spans) read(mi int, p []byte, off int64) (int, error) {
	s.got = append(s.got, fmt.Sprintf("%d:[%d,%d)", mi, off, off+int64(len(p))))
	return copy(p, s.blob[off:]), nil
}

// TestReadRunsMerge: the planner reads each batch's frame and its whole
// chain, and merges two frames into one read only when they are contiguous
// in the archive and of one member, which read is told.
func TestReadRunsMerge(t *testing.T) {
	r, blob, _ := runsReader(t)
	for _, tc := range []struct {
		mi      int
		batches []int
		want    []string
	}{
		{0, []int{0, 1, 2}, []string{"0:[10,30)", "0:[40,50)"}},
		// [40,50) and [50,60) touch, but are of members 0 and 1.
		{1, []int{0, 2}, []string{"0:[10,20)", "0:[40,50)", "1:[50,60)", "1:[70,80)"}},
		// Batch 2 of member 2 is intra: its chain is its own frame.
		{2, []int{2, 1}, []string{"0:[20,30)", "1:[60,70)", "2:[90,110)"}},
		{2, nil, nil},
	} {
		s := &spans{blob: blob}
		src, err := r.ReadRuns(tc.mi, 0, tc.batches, nil, s.read)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(s.got, tc.want) {
			t.Errorf("member %d batches %v: reads %v, want %v", tc.mi, tc.batches, s.got, tc.want)
		}
		if tc.want == nil && src != r.r {
			t.Errorf("member %d batches %v: nothing to read, yet the source is not the archive's", tc.mi, tc.batches)
		}
	}
}

// TestReadRunsStop: stop ends a chain's walk at the first link it names,
// leaving that link's frame and everything below it unread, and is asked
// about reference links only, never about the planned batches' own frames.
func TestReadRunsStop(t *testing.T) {
	r, blob, _ := runsReader(t)
	for _, tc := range []struct {
		stopAt    int // the member stop names
		want      []string
		wantAsked []string
	}{
		{0, []string{"1:[50,70)", "2:[80,100)"}, []string{"1/0", "0/0", "1/1", "0/1"}},
		{1, []string{"2:[80,100)"}, []string{"1/0", "1/1"}},
		{-1, []string{"0:[10,30)", "1:[50,70)", "2:[80,100)"}, []string{"1/0", "0/0", "1/1", "0/1"}},
	} {
		s := &spans{blob: blob}
		var asked []string
		_, err := r.ReadRuns(2, 0, []int{0, 1}, func(mi, b int) bool {
			asked = append(asked, fmt.Sprintf("%d/%d", mi, b))
			return mi == tc.stopAt
		}, s.read)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(s.got, tc.want) || !slices.Equal(asked, tc.wantAsked) {
			t.Errorf("stop at member %d: reads %v, asked %v; want %v, %v", tc.stopAt, s.got, asked, tc.want, tc.wantAsked)
		}
	}
}

// TestReadRunsFailure: a read that fails, or comes up short without an
// error, fails the plan with ErrCorrupt and ErrIO, naming the run's member
// and the level, with the cause kept in the chain.
func TestReadRunsFailure(t *testing.T) {
	r, _, _ := runsReader(t)
	boom := errors.New("boom")
	for what, tc := range map[string]struct {
		read  func(mi int, p []byte, off int64) (int, error)
		cause error
	}{
		"failing": {func(int, []byte, int64) (int, error) { return 0, boom }, boom},
		"short":   {func(_ int, p []byte, _ int64) (int, error) { return len(p) - 1, nil }, io.ErrUnexpectedEOF},
	} {
		_, err := r.ReadRuns(2, 0, []int{2}, nil, tc.read)
		if err == nil {
			t.Fatalf("%s read: the plan succeeded", what)
		}
		if !errors.Is(err, ErrCorrupt) || !errors.Is(err, ErrIO) || !errors.Is(err, tc.cause) {
			t.Errorf("%s read: %v, want ErrCorrupt, ErrIO and %v", what, err, tc.cause)
		}
		if !strings.Contains(err.Error(), "member 2 level 0") {
			t.Errorf("%s read: %q names no member and level", what, err)
		}
	}
}

// TestReadRunsFallback: the returned source answers a read inside a run
// from the run, and any other read — a frame outside every run, or a span
// crossing a run's end — from the archive's bytes.
func TestReadRunsFallback(t *testing.T) {
	r, blob, cc := runsReader(t)
	src, err := r.ReadRuns(0, 0, []int{0}, nil, func(_ int, p []byte, off int64) (int, error) { return r.r.ReadAt(p, off) })
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		off, end int64
		source   int64 // ReadAt calls the archive's reader answers
	}{
		{10, 20, 0}, {12, 18, 0}, {40, 50, 1}, {15, 25, 1}, {0, 10, 1},
	} {
		calls := cc.calls.Load()
		p := make([]byte, tc.end-tc.off)
		if n, err := src.ReadAt(p, tc.off); err != nil || n != len(p) {
			t.Fatalf("[%d,%d): %d bytes, %v", tc.off, tc.end, n, err)
		}
		if !bytes.Equal(p, blob[tc.off:tc.end]) {
			t.Errorf("[%d,%d): wrong bytes", tc.off, tc.end)
		}
		if got := cc.calls.Load() - calls; got != tc.source {
			t.Errorf("[%d,%d): %d reads of the archive, want %d", tc.off, tc.end, got, tc.source)
		}
	}
}

// TestReadRunsExtract: a real extraction plans its frames through the
// planner: one level of the last member of a chain-depth-3 campaign is one
// ReadAt per chain member, each member's frames of a level being stored
// back to back, and decodes as DecodeBatch does.
func TestReadRunsExtract(t *testing.T) {
	blob := buildDeltaArchive(t, testCampaign(t, 4), 4)
	r, err := Open(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	cc := &callCounter{r: r.r}
	r.r = cc
	for li := range r.Members()[3].Levels {
		calls := cc.calls.Load()
		got, err := r.ExtractLevel(3, li)
		if err != nil {
			t.Fatal(err)
		}
		if n := cc.calls.Load() - calls; n != 4 {
			t.Errorf("level %d: %d reads, want one per chain member, 4", li, n)
		}
		requireLevel(t, fmt.Sprintf("level %d", li), got, referenceLevel(t, r, 3, li))
	}
}
