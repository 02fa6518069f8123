package main

import (
	"bytes"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/amr"
	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/sim"
)

// data holds `tacc gen -scale 16` output, and camp its seven snapshots as
// one archive, both made once by TestMain through run itself.
var data, camp string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tacc-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data, camp = filepath.Join(dir, "data"), filepath.Join(dir, "camp.taca")
	code := 1
	var stderr bytes.Buffer
	if run([]string{"gen", "-scale", "16", "-out", data}, io.Discard, &stderr) == 0 &&
		run(append([]string{"archive", "-rel", "-eb", "1e-3", camp}, snaps()...), io.Discard, &stderr) == 0 {
		code = m.Run()
	} else {
		fmt.Fprint(os.Stderr, stderr.String())
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// snaps lists the generated snapshots in catalog order.
func snaps() []string {
	specs, _ := sim.Catalog(16)
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = snap(s.Name)
	}
	return out
}

func snap(name string) string { return filepath.Join(data, name+"_baryon_density.amr") }

// tacc runs one command line in-process and returns its exit status and
// output streams.
func tacc(args ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	code = run(args, &o, &e)
	return code, o.String(), e.String()
}

// mustTacc runs a command line that must succeed and returns its stdout.
func mustTacc(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errOut := tacc(args...)
	if code != 0 {
		t.Fatalf("tacc %s: exit %d\n%s", strings.Join(args, " "), code, errOut)
	}
	return out
}

// wantExit runs a command line that must exit with code and returns its
// stderr.
func wantExit(t *testing.T, code int, args ...string) string {
	t.Helper()
	got, _, errOut := tacc(args...)
	if got != code {
		t.Fatalf("tacc %s: exit %d, want %d\n%s", strings.Join(args, " "), got, code, errOut)
	}
	return errOut
}

// encode is a dataset's .amr bytes, the form two datasets are compared in.
func encode(t *testing.T, ds *amr.Dataset) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := ds.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func load(t *testing.T, path string) *amr.Dataset {
	t.Helper()
	ds, err := amr.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// damagedCopy writes camp with the byte at len/3 XOR-ed with 0x10, a bit
// inside one of its frames.
func damagedCopy(t *testing.T) string {
	t.Helper()
	b := readFile(t, camp)
	b[len(b)/3] ^= 0x10
	path := filepath.Join(t.TempDir(), "damaged.taca")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// subcommandTests is each subcommand's test, by name.
var subcommandTests = map[string]func(*testing.T){
	"compress":   testCompress,
	"decompress": testDecompress,
	"info":       testInfo,
	"verify":     testVerify,
	"repair":     testRepair,
	"errmap":     testErrmap,
	"archive":    testArchive,
	"ls":         testLs,
	"extract":    testExtract,
	"gen":        testGen,
	"exhibits":   testExhibits,
}

// TestSubcommands runs every subcommand's test and fails for a
// subcommand in the table that has none.
func TestSubcommands(t *testing.T) {
	for _, c := range commands {
		test, ok := subcommandTests[c.name]
		if !ok {
			t.Errorf("subcommand %q has no test", c.name)
			continue
		}
		t.Run(c.name, test)
	}
	if len(subcommandTests) != len(commands) {
		t.Errorf("%d subcommand tests for %d subcommands", len(subcommandTests), len(commands))
	}
}

func testGen(t *testing.T) {
	specs, err := sim.Catalog(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if err := load(t, snap(s.Name)).Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	dir := t.TempDir()
	out := mustTacc(t, "gen", "-scale", "16", "-dataset", "Run1_Z10", "-out", dir)
	if strings.Count(out, "\n") != 1 {
		t.Errorf("-dataset wrote %q, want one line", out)
	}
	if !bytes.Equal(readFile(t, filepath.Join(dir, "Run1_Z10_baryon_density.amr")), readFile(t, snap("Run1_Z10"))) {
		t.Error("-dataset Run1_Z10 differs from the same dataset of a full run")
	}
	wantExit(t, 1, "gen", "-scale", "16", "-dataset", "nope", "-out", dir)
	wantExit(t, 2, "gen", "extra")
}

// testCompress round-trips every codec through compress and decompress.
func testCompress(t *testing.T) {
	in := snap("Run1_Z10")
	for _, e := range codecs {
		t.Run(e.c.Name(), func(t *testing.T) {
			dir := t.TempDir()
			tacz, out := filepath.Join(dir, "x.tacz"), filepath.Join(dir, "x.amr")
			mustTacc(t, "compress", "-codec", e.c.Name(), "-rel", "-eb", "1e-3", in, tacz)
			mustTacc(t, "decompress", tacz, out)
			want, err := e.c.Decompress(readFile(t, tacz))
			if err != nil {
				t.Fatal(err)
			}
			got := load(t, out)
			if !bytes.Equal(encode(t, got), encode(t, want)) {
				t.Error("decompress differs from the codec's own Decompress")
			}
			if err := got.Validate(); err != nil {
				t.Error(err)
			}
		})
	}
	wantExit(t, 2, "compress", "-codec", "nope", in, filepath.Join(t.TempDir(), "x.tacz"))
	wantExit(t, 2, "compress", "-scales", "3,x", in, filepath.Join(t.TempDir(), "x.tacz"))
}

// testDecompress checks that a damaged payload reports its own codec's
// error, and that a failing run still leaves complete profiles.
func testDecompress(t *testing.T) {
	dir := t.TempDir()
	tacz := filepath.Join(dir, "x.tacz")
	mustTacc(t, "compress", "-rel", "-eb", "1e-3", snap("Run1_Z10"), tacz)
	blob := readFile(t, tacz)
	cut := blob[:min(2000, len(blob)/2)]
	_, want := core.TAC{}.Decompress(cut)
	if want == nil {
		t.Fatal("TAC decodes its cut payload")
	}
	bad := filepath.Join(dir, "cut.tacz")
	if err := os.WriteFile(bad, cut, 0o644); err != nil {
		t.Fatal(err)
	}
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	errOut := wantExit(t, 1, "-cpuprofile", cpu, "-memprofile", mem, "decompress", bad, filepath.Join(dir, "x.amr"))
	if !strings.Contains(errOut, want.Error()) || strings.Count(errOut, "\n") != 1 {
		t.Errorf("stderr %q, want one line with TAC's error %q", errOut, want)
	}
	for _, p := range []string{cpu, mem} {
		if b := readFile(t, p); len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %d bytes, not a gzip stream", filepath.Base(p), len(b))
		}
	}

	sk := codec.SkeletonOf(load(t, snap("Run1_Z10")))
	unknown, err := codec.EncodeContainer(9, sk, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, unknown, 0o644); err != nil {
		t.Fatal(err)
	}
	if errOut := wantExit(t, 1, "decompress", bad, filepath.Join(dir, "x.amr")); !strings.Contains(errOut, "codec id 9") {
		t.Errorf("stderr %q does not name codec id 9", errOut)
	}
	wantExit(t, 2, "decompress", tacz)
}

func testInfo(t *testing.T) {
	if out := mustTacc(t, "info", snap("Run1_Z10")); !strings.Contains(out, "structure: valid") {
		t.Errorf("info printed %q", out)
	}
	level := filepath.Join(t.TempDir(), "level.amr")
	mustTacc(t, "extract", "-level", "0", camp, level)
	if errOut := wantExit(t, 1, "info", level); !strings.Contains(errOut, "VALIDATION FAILED") {
		t.Errorf("stderr %q", errOut)
	}
}

// sectionsLine is verify's per-member line on an archive.
var sectionsLine = regexp.MustCompile(`(?m)^  (\S+): (\d+) frames, (\d+) stored \+ (\d+) deflated code sections$`)

// frameName is a frame's coordinates as the archive's errors give them.
var frameName = regexp.MustCompile(`member \d+ level \d+ batch \d+`)

func testVerify(t *testing.T) {
	if out := mustTacc(t, "verify", "-rel", "-eb", "1e-3", snap("Run1_Z10")); !strings.Contains(out, "PSNR") {
		t.Errorf("round-trip verify printed %q", out)
	}

	out := mustTacc(t, "verify", camp)
	lines := sectionsLine.FindAllStringSubmatch(out, -1)
	if len(lines) != len(snaps()) {
		t.Fatalf("%d per-member lines for %d members:\n%s", len(lines), len(snaps()), out)
	}
	for _, l := range lines {
		n := make([]int, 3)
		for i := range n {
			n[i], _ = strconv.Atoi(l[i+2])
		}
		if n[0] == 0 || n[1]+n[2] != n[0] {
			t.Errorf("%s: %d stored + %d deflated for %d frames", l[1], n[1], n[2], n[0])
		}
	}

	errOut := wantExit(t, 1, "verify", damagedCopy(t))
	if !strings.Contains(errOut, "DAMAGED archive: member") || len(frameName.FindAllString(errOut, -1)) != 1 || strings.Count(errOut, "\n") != 1 {
		t.Errorf("stderr %q, want one line naming the damaged frame once", errOut)
	}
}

func testRepair(t *testing.T) {
	damaged := damagedCopy(t)
	out := mustTacc(t, "repair", "-replica", camp, damaged)
	if !strings.Contains(out, "repaired 1 of") {
		t.Errorf("repair printed %q", out)
	}
	if !bytes.Equal(readFile(t, damaged), readFile(t, camp)) {
		t.Error("repaired archive differs from the replica")
	}
	if out := mustTacc(t, "repair", "-replica", camp, damaged); !strings.Contains(out, "nothing to repair") {
		t.Errorf("second repair printed %q", out)
	}
	wantExit(t, 2, "repair", damaged)
}

func testErrmap(t *testing.T) {
	out := filepath.Join(t.TempDir(), "err.png")
	mustTacc(t, "errmap", "-rel", "-eb", "1e-3", "-level", "1", snap("Run1_Z10"), out)
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := png.Decode(f); err != nil {
		t.Fatal(err)
	}
	wantExit(t, 1, "errmap", "-level", "9", snap("Run1_Z10"), out)
}

// lsRows returns ls's member rows, split into columns.
func lsRows(t *testing.T, path string) [][]string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(mustTacc(t, "ls", path)), "\n")
	rows := make([][]string, len(lines)-1)
	for i, l := range lines[1:] {
		rows[i] = strings.Fields(l)
	}
	return rows
}

func testArchive(t *testing.T) {
	dir := t.TempDir()
	grown := filepath.Join(dir, "grown.taca")
	z10, z5 := snap("Run1_Z10"), snap("Run1_Z5")
	mustTacc(t, "archive", grown, z10, z5)
	if out := mustTacc(t, "archive", "-append", grown, z5, z10); !strings.Contains(out, "+2 appended, generation 1") {
		t.Errorf("append printed %q", out)
	}
	for i, row := range lsRows(t, grown) {
		if gen := strconv.Itoa(i / 2); row[4] != gen || row[5] != "intra" {
			t.Errorf("member %d: gen %s mode %s, want gen %s intra", i, row[4], row[5], gen)
		}
	}

	campaign := filepath.Join(dir, "campaign.taca")
	mustTacc(t, "archive", "-keyframe", "3", campaign, z10, z10, z10, z10)
	var modes []string
	for _, row := range lsRows(t, campaign) {
		modes = append(modes, row[5])
	}
	if want := []string{"intra", "delta->0", "delta->1", "intra"}; strings.Join(modes, " ") != strings.Join(want, " ") {
		t.Errorf("-keyframe 3 modes %v, want %v", modes, want)
	}
	errOut := wantExit(t, 2, "archive", "-keyframe", "1", campaign, z10)
	if !strings.Contains(errOut, "-keyframe must be 0 (off) or >= 2") {
		t.Errorf("stderr %q", errOut)
	}
	wantExit(t, 2, "archive", campaign)
}

func testLs(t *testing.T) {
	rows := lsRows(t, camp)
	specs, _ := sim.Catalog(16)
	if len(rows) != len(specs) {
		t.Fatalf("%d rows for %d members", len(rows), len(specs))
	}
	for i, row := range rows {
		if row[0] != strconv.Itoa(i) || row[1] != specs[i].Name || row[5] != "intra" {
			t.Errorf("row %d: %v", i, row)
		}
	}
	wantExit(t, 1, "ls", snap("Run1_Z10"))
}

// testExtract checks a member, a level and a region against
// archive.Reader's own extraction of them.
func testExtract(t *testing.T) {
	fr, err := archive.OpenFile(camp)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	mi := fr.Find("Run1_Z5", "")
	roi := grid.Region{X1: 16, Y1: 8, Z0: 4, Z1: 12}
	member, err := fr.Extract(mi)
	if err != nil {
		t.Fatal(err)
	}
	level, err := fr.ExtractLevel(mi, 0)
	if err != nil {
		t.Fatal(err)
	}
	region, err := fr.ExtractRegion(mi, roi)
	if err != nil {
		t.Fatal(err)
	}
	m := fr.Members()[mi]
	for _, tc := range []struct {
		args []string
		want *amr.Dataset
	}{
		{[]string{"-member", "Run1_Z5"}, member},
		{[]string{"-member", strconv.Itoa(mi), "-level", "0"}, &amr.Dataset{Name: m.Name, Field: m.Field, Ratio: m.Ratio, Levels: []*amr.Level{level}}},
		{[]string{"-member", "Run1_Z5/baryon_density", "-roi", "0:16,0:8,4:12"}, region},
	} {
		out := filepath.Join(t.TempDir(), "x.amr")
		mustTacc(t, append(append([]string{"extract"}, tc.args...), camp, out)...)
		if !bytes.Equal(readFile(t, out), encode(t, tc.want)) {
			t.Errorf("extract %v differs from archive.Reader's", tc.args)
		}
	}
	out := filepath.Join(t.TempDir(), "x.amr")
	wantExit(t, 2, "extract", "-level", "0", "-roi", "0:16,0:8,4:12", camp, out)
	wantExit(t, 2, "extract", "-roi", "0:16", camp, out)
	wantExit(t, 1, "extract", "-member", "nope", camp, out)
}

func testExhibits(t *testing.T) {
	var ids []string
	for _, ex := range experiments.Exhibits() {
		ids = append(ids, ex.ID)
	}
	var listed []string
	for _, l := range strings.Split(strings.TrimSpace(mustTacc(t, "exhibits", "-list")), "\n") {
		listed = append(listed, strings.Fields(l)[0])
	}
	if len(listed) != 15 || strings.Join(listed, " ") != strings.Join(ids, " ") {
		t.Errorf("-list printed %v, want the 15 exhibits %v", listed, ids)
	}
	if out := mustTacc(t, "exhibits", "-scale", "16", "-only", "table1"); !strings.Contains(out, "Run2_T4") {
		t.Errorf("table1 printed %q", out)
	}
	wantExit(t, 1, "exhibits", "-scale", "16", "-only", "nope")
}

// TestArchiveOverURL runs ls, verify and extract on an archive served by a
// plain range server and wants the local results; repair refuses a URL.
func TestArchiveOverURL(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, err := os.Open(camp)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		http.ServeContent(w, r, "camp.taca", st.ModTime(), f)
	}))
	defer srv.Close()
	url := srv.URL + "/camp.taca"

	if got, want := mustTacc(t, "ls", url), mustTacc(t, "ls", camp); got != want {
		t.Errorf("ls over URL:\n%s\nlocal:\n%s", got, want)
	}
	got := sectionsLine.FindAllString(mustTacc(t, "verify", url), -1)
	want := sectionsLine.FindAllString(mustTacc(t, "verify", camp), -1)
	if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("verify over URL:\n%s\nlocal:\n%s", got, want)
	}
	dir := t.TempDir()
	for _, sel := range [][]string{{"-member", "2"}, {"-member", "Run2_T2", "-level", "1"}, {"-member", "1", "-roi", "8:24,0:32,0:32"}} {
		local, remote := filepath.Join(dir, "local.amr"), filepath.Join(dir, "remote.amr")
		mustTacc(t, append(append([]string{"extract"}, sel...), camp, local)...)
		mustTacc(t, append(append([]string{"extract"}, sel...), url, remote)...)
		if !bytes.Equal(readFile(t, remote), readFile(t, local)) {
			t.Errorf("extract %v over URL differs from the local file's", sel)
		}
	}
	if errOut := wantExit(t, 1, "repair", "-replica", camp, url); !strings.Contains(errOut, "cannot repair a remote archive") {
		t.Errorf("stderr %q", errOut)
	}
}

// TestUsageErrors wants exit 2 for command lines tacc cannot run.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"nope"},
		{"-bogus", "ls", camp},
		{"ls", "-bogus", camp},
		{"ls"},
		{"compress", snap("Run1_Z10")},
	} {
		if code, _, errOut := tacc(args...); code != 2 || !strings.Contains(errOut, "usage: tacc") {
			t.Errorf("tacc %v: exit %d, stderr %q; want 2 and the usage", args, code, errOut)
		}
	}
}
