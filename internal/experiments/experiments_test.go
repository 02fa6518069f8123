package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/sim"
	"repro/internal/sz"
)

// testEnv uses scale 8 (Run1: 64³/32³) so the full exhibit set stays fast.
func testEnv() *Env { return NewEnv(8) }

func TestTable1Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, testEnv()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"Run1_Z10", "Run1_Z5", "Run1_Z3", "Run1_Z2", "Run2_T2", "Run2_T3", "Run2_T4"} {
		if !strings.Contains(out, name) {
			t.Fatalf("Table 1 output missing %s:\n%s", name, out)
		}
	}
}

func TestFig7OpSTBeatsNaST(t *testing.T) {
	env := testEnv()
	l, err := env.Level(LevelRef{Label: "z10 fine", Dataset: "Run1_Z10", Level: 0}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	eb := codec.Config{ErrorBound: 4.8e-5, Mode: sz.Rel}.LevelEB(0, l) // discriminative regime for the synthetic field
	nast, err := RunLevel(l, codec.NaST, eb)
	if err != nil {
		t.Fatal(err)
	}
	opst, err := RunLevel(l, codec.OpST, eb)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig 7: OpST achieves a higher CR at the same bound (the PSNR
	// edge is subtler; require CR strictly better and PSNR not worse by
	// more than 1 dB).
	if opst.Ratio <= nast.Ratio {
		t.Errorf("OpST CR %.1f not better than NaST %.1f", opst.Ratio, nast.Ratio)
	}
	if opst.PSNR < nast.PSNR-1 {
		t.Errorf("OpST PSNR %.2f far below NaST %.2f", opst.PSNR, nast.PSNR)
	}
}

func TestFig12GSPBeatsZFAtHighDensity(t *testing.T) {
	// At 99.8% density (where TAC's hybrid uses GSP), ghost-shell padding
	// must not lose to plain zero filling: the paper's claim is better
	// rate-distortion on high-density levels. Our SZ restores empty
	// regions exactly for GSP via the mask, so PSNR ties or wins, and CR
	// must be at least ZF's.
	env := testEnv()
	l, err := env.Level(LevelRef{Label: "T2 coarse", Dataset: "Run2_T2", Level: 1}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	eb := codec.Config{ErrorBound: 6.7e-3, Mode: sz.Rel}.LevelEB(0, l)
	zf, err := RunLevel(l, codec.ZF, eb)
	if err != nil {
		t.Fatal(err)
	}
	gsp, err := RunLevel(l, codec.GSP, eb)
	if err != nil {
		t.Fatal(err)
	}
	if gsp.PSNR < zf.PSNR-0.1 {
		t.Errorf("GSP PSNR %.2f below ZF %.2f", gsp.PSNR, zf.PSNR)
	}
	if gsp.Ratio < zf.Ratio*0.98 {
		t.Errorf("GSP CR %.1f below ZF %.1f", gsp.Ratio, zf.Ratio)
	}
}

func TestFig11GSPWinsAtVeryHighDensity(t *testing.T) {
	// The hybrid threshold T2: above it, GSP must beat the extraction
	// strategies (paper Fig 11e/f).
	env := testEnv()
	l, err := env.Level(LevelRef{Label: "T2 coarse", Dataset: "Run2_T2", Level: 1}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	eb := 1e9
	gsp, err := RunLevel(l, codec.GSP, eb)
	if err != nil {
		t.Fatal(err)
	}
	akd, err := RunLevel(l, codec.AKD, eb)
	if err != nil {
		t.Fatal(err)
	}
	if gsp.BitRate >= akd.BitRate {
		t.Errorf("GSP bitrate %.3f not below AKD %.3f at 99.8%% density", gsp.BitRate, akd.BitRate)
	}
}

func TestFig11OpSTWinsAtLowDensity(t *testing.T) {
	// Below T1, the extraction strategies must beat GSP (paper Fig 11a).
	env := testEnv()
	l, err := env.Level(LevelRef{Label: "z10 fine", Dataset: "Run1_Z10", Level: 0}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	eb := 1e9
	gsp, err := RunLevel(l, codec.GSP, eb)
	if err != nil {
		t.Fatal(err)
	}
	op, err := RunLevel(l, codec.OpST, eb)
	if err != nil {
		t.Fatal(err)
	}
	if op.BitRate >= gsp.BitRate {
		t.Errorf("OpST bitrate %.3f not below GSP %.3f at 23%% density", op.BitRate, gsp.BitRate)
	}
}

func TestFig11OpSTAndAKDClose(t *testing.T) {
	env := testEnv()
	l, err := env.Level(LevelRef{Label: "z10 fine", Dataset: "Run1_Z10", Level: 0}, sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	eb := 1e9
	op, err := RunLevel(l, codec.OpST, eb)
	if err != nil {
		t.Fatal(err)
	}
	ak, err := RunLevel(l, codec.AKD, eb)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig 11: OpST and AKDTree have almost identical rate-distortion.
	if ak.BitRate > op.BitRate*1.3 || op.BitRate > ak.BitRate*1.3 {
		t.Errorf("OpST br %.3f and AKD br %.3f diverge beyond 30%%", op.BitRate, ak.BitRate)
	}
	if diff := op.PSNR - ak.PSNR; diff > 3 || diff < -3 {
		t.Errorf("OpST PSNR %.1f and AKD PSNR %.1f diverge beyond 3 dB", op.PSNR, ak.PSNR)
	}
}

func TestFig15TACBeats3DOnSparse(t *testing.T) {
	env := testEnv()
	ds, err := env.Dataset("Run2_T2", sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	eb := 1e9
	tac, _, _, err := RunCodec(Codecs()[0], ds, codec.Config{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	u3, _, _, err := RunCodec(Codecs()[3], ds, codec.Config{ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	// Finest density 0.2%: the 3D baseline compresses 8× redundant data;
	// TAC's bit-rate must be far lower at the same bound.
	if tac.BitRate >= u3.BitRate {
		t.Errorf("TAC bitrate %.3f not below 3D baseline %.3f on sparse data", tac.BitRate, u3.BitRate)
	}
}

func TestMatchRatioConverges(t *testing.T) {
	env := testEnv()
	ds, err := env.Dataset("Run1_Z10", sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	target := 60.0
	_, got, err := MatchRatio(Codecs()[0], ds, codec.Config{}, target, 0.05, 24)
	if err != nil {
		t.Fatal(err)
	}
	if got < target*0.9 || got > target*1.1 {
		t.Fatalf("MatchRatio landed at %.1f, want ≈%.1f", got, target)
	}
}

func TestEnvCaches(t *testing.T) {
	env := testEnv()
	a, err := env.Dataset("Run1_Z10", sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.Dataset("Run1_Z10", sim.BaryonDensity)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("dataset not cached")
	}
}

func TestRunByID(t *testing.T) {
	var buf bytes.Buffer
	if err := RunByID(&buf, testEnv(), "table1"); err != nil {
		t.Fatal(err)
	}
	if err := RunByID(&buf, testEnv(), "nope"); err == nil {
		t.Fatal("unknown exhibit should error")
	}
}

func TestExhibitsComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, ex := range Exhibits() {
		ids[ex.ID] = true
	}
	for _, want := range []string{"table1", "table2", "table3", "fig7", "fig11", "fig12", "fig13", "fig14", "fig15", "fig18", "fig19"} {
		if !ids[want] {
			t.Fatalf("exhibit %s missing", want)
		}
	}
}
