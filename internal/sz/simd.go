package sz

// The vector path of the batch kernels: lanes are blocks.
//
// The Lorenzo recurrence makes the cells of one block sequential, but the
// blocks of a batch never see each other, so simdLanes same-shaped float32
// blocks are walked in lock step with one block per vector lane. Every lane
// then executes the scalar kernel's own sequence of IEEE operations — the
// float32 seven-term sum in the reference's order, the float64 subtract,
// divide, round, multiply, + 0 and add (never fused), the conversions and
// the two ordered compares — so codes and reconstructions come out bit for
// bit as kernel.go and kernel_quad.go produce them, and the literal pool
// the seal builds from those codes with them. Those stay: they
// are the only path for float64 grids, for other architectures, for CPUs
// without AVX2 and for the blocks a batch has left over under a full group,
// and they are what simd_test.go compares this file against.
//
// Two things differ from the Go kernels, neither visible in the output.
//
// Rounding. math.Round has no instruction; fastRound builds it from
// RoundToEven and a tie fix. Here it is trunc(q + copysign(h, q)) with h
// the largest float64 below one half, which is round-half-away-from-zero
// for every float64 q. For 0 <= q < 2^52 write q = n+f. If f >= 1/2 the
// exact sum is at least n+1-2^-54, which lies at or above the midpoint of
// n+1 and the float64 before it (they are at least 2^-53 apart), and at
// that midpoint — only q = 1/2 reaches it — the tie goes to the even
// neighbour, which is 1: the sum rounds to n+1 or more. If f < 1/2 then q
// is at most n+1/2-u, u the float64 spacing just under n+1/2, and
// u+2^-54 exceeds half the spacing under n+1, so the sum rounds below n+1.
// Above 2^52 every float64 is an integer and h is under half a spacing.
// Negative q mirrors, zeros keep their sign, NaN and Inf pass through.
// TestRoundHalfAwayByTrunc checks it against math.Round.
//
// Boundaries. The Go kernels peel the x = 0 face and the y = 0 and z = 0
// lines of every plane into loops of their own that leave the absent
// neighbours out. Here the reconstruction carries a halo of +0 at x, y and
// z = -1, and one loop body adds all seven terms everywhere: that is
// lorenzoPred itself, which sums zeros for the absent neighbours.
//
// Layout. A group's source values, codes and reconstruction are
// [cell][simdLanes], cell in the block's row-major order, put together
// from the blocks' own dense arrays and taken apart into them by 8×8
// register transposes (interleave, deinterleave). The kernels keep a
// second copy of the reconstruction, with the halo, for the prediction to
// read; they never write the halo and overwrite every other cell of it,
// so it is zeroed only when the block shape changes.
//
// This file is what every build has. The kernels and the code that calls
// them are in simd_amd64.go and simd_amd64.s; simd_other.go has what stands
// in for them elsewhere and under -tags purego.

// simdLanes is the number of blocks coded in lock step (LANES in
// simd_amd64.s). Sixteen float32 lanes are four independent float64
// chains; EXPERIMENTS.md has the measurements against 8 and 32.
const simdLanes = 16

// KernelPath names the batch kernels this process runs on float32 blocks:
// "avx2" or "portable".
func KernelPath() string {
	if haveAVX2 {
		return "avx2"
	}
	return "portable"
}
