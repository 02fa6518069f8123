package main

// metricDef is one row of the metric registry. BENCHMARK.json at the
// repository root lists exactly these names, units and bounds; the test
// in this directory fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload it should move; the traced run prints it beside the value
	// and README has the full table.
	Moves string
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"campaign_write", "simulation side: archive 10 snapshots intra plus a 6-step Keyframe=4 campaign; encode path only, server and remote do nothing"},
	{"cold_extract", "analyst side: open + extract member/level/region + close with no cache; decode path only, encode and server do nothing"},
	{"serve_hot", "warm tacd GETs over loopback, block cache larger than the working set; cache lookup, assembly and encoding only, codec idle"},
	{"serve_churn", "remote-mounted archives behind a block cache a tenth of the working set, plus ingest POSTs: miss, evict, fetch, decode and write contend"},
}

// endToEnd are the metrics a user of the system sees. Every one is
// reported on every workload and is never zero there. The four timings
// are calibrated to the reference machine (calibrate.go) and still carry
// the largest bound a benchmark may set: calibration takes this sandbox's
// wander from a fifth down to a twentieth, and a set of ten runs has to
// stay inside the bound every time it is taken (README has the numbers).
// The two exact metrics keep the floors ISSUE 11 names.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_mb_s", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "stored_ratio", Unit: "ratio", Better: "higher", Bound: 0.005},
	{Name: "psnr_db", Unit: "dB", Better: "higher", Bound: 0.001},
}

// perLayer are the single-layer metrics of the traced run. A metric is 0
// on a workload whose operations never enter that layer — that zero is
// the evidence that the workload bypasses it.
var perLayer = []metricDef{
	{Name: "sim.generate_s", Unit: "s", Better: "lower", Moves: "setup_s on all"},

	{Name: "preprocess.plan_gather_ms", Unit: "ms", Better: "lower", Moves: "throughput_mb_s on campaign_write"},
	{Name: "preprocess.scatter_ms", Unit: "ms", Better: "lower", Moves: "throughput_mb_s on cold_extract"},
	{Name: "preprocess.levels_opst", Unit: "count", Better: "higher", Moves: "none: must not move"},
	{Name: "preprocess.levels_akd", Unit: "count", Better: "higher", Moves: "none: must not move"},
	{Name: "preprocess.levels_gsp", Unit: "count", Better: "higher", Moves: "none: must not move"},

	{Name: "sz.predict_mb_s", Unit: "MB/s", Better: "higher", Moves: "throughput_mb_s on campaign_write"},
	{Name: "sz.encode_blocks_mb_s", Unit: "MB/s", Better: "higher", Moves: "throughput_mb_s on campaign_write"},
	{Name: "sz.encode_other_share", Unit: "ratio", Better: "lower", Moves: "throughput_mb_s on campaign_write"},
	{Name: "sz.literal_ratio", Unit: "ratio", Better: "lower", Moves: "stored_ratio on campaign_write"},
	{Name: "sz.reconstruct_mb_s", Unit: "MB/s", Better: "higher", Moves: "throughput_mb_s on cold_extract"},
	{Name: "sz.decode_blocks_mb_s", Unit: "MB/s", Better: "higher", Moves: "throughput_mb_s on cold_extract"},
	{Name: "sz.delta_decode_mb_s", Unit: "MB/s", Better: "higher", Moves: "throughput_mb_s on cold_extract"},
	{Name: "sz.entropy_decode_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on cold_extract"},
	{Name: "sz.deflate_share", Unit: "ratio", Better: "lower", Moves: "throughput_mb_s on cold_extract"},
	{Name: "sz.decode_other_share", Unit: "ratio", Better: "lower", Moves: "throughput_mb_s on cold_extract"},

	{Name: "huffman.encode_mb_s", Unit: "MB/s", Better: "higher", Moves: "throughput_mb_s on campaign_write"},
	{Name: "huffman.decode_mb_s", Unit: "MB/s", Better: "higher", Moves: "throughput_mb_s on cold_extract"},
	{Name: "huffman.bits_per_symbol", Unit: "bit", Better: "lower", Moves: "stored_ratio on campaign_write"},

	{Name: "core.compress_mb_s", Unit: "MB/s", Better: "higher", Moves: "throughput_mb_s on campaign_write"},
	{Name: "core.compress_w1_mb_s", Unit: "MB/s", Better: "higher", Moves: "throughput_mb_s on campaign_write"},
	{Name: "core.compress_scaling", Unit: "ratio", Better: "higher", Moves: "throughput_mb_s on campaign_write"},
	{Name: "core.decompress_mb_s", Unit: "MB/s", Better: "higher", Moves: "throughput_mb_s on cold_extract"},
	{Name: "core.decompress_w1_mb_s", Unit: "MB/s", Better: "higher", Moves: "throughput_mb_s on cold_extract"},
	{Name: "core.decompress_scaling", Unit: "ratio", Better: "higher", Moves: "throughput_mb_s on cold_extract"},

	{Name: "archive.write_intra_mb_s", Unit: "MB/s", Better: "higher", Moves: "throughput_mb_s on campaign_write"},
	{Name: "archive.write_delta_mb_s", Unit: "MB/s", Better: "higher", Moves: "throughput_mb_s on campaign_write"},
	{Name: "archive.write_self_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on campaign_write"},
	{Name: "archive.commit_ms", Unit: "ms", Better: "lower", Moves: "throughput_mb_s on campaign_write"},
	{Name: "archive.sink_bytes", Unit: "B", Better: "lower", Moves: "stored_ratio on campaign_write"},
	{Name: "archive.sink_writes", Unit: "count", Better: "lower", Moves: "throughput_mb_s on campaign_write"},
	{Name: "archive.sink_write_ms", Unit: "ms", Better: "lower", Moves: "throughput_mb_s on campaign_write"},
	{Name: "archive.open_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on cold_extract"},
	{Name: "archive.source_reads", Unit: "count", Better: "lower", Moves: "op_p50_ms on cold_extract"},
	{Name: "archive.source_bytes", Unit: "B", Better: "lower", Moves: "archive.read_amp on cold_extract"},
	{Name: "archive.source_read_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on cold_extract"},
	{Name: "archive.read_amp", Unit: "ratio", Better: "lower", Moves: "throughput_mb_s on cold_extract, serve_churn"},
	{Name: "archive.crc_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on cold_extract"},
	{Name: "archive.decode_batch_ms", Unit: "ms", Better: "lower", Moves: "op_p95_ms on serve_churn"},
	{Name: "archive.frames_per_op", Unit: "count", Better: "lower", Moves: "op_p50_ms on cold_extract"},
	{Name: "archive.extract_intra_mb_s", Unit: "MB/s", Better: "higher", Moves: "throughput_mb_s on cold_extract"},
	{Name: "archive.extract_delta_mb_s", Unit: "MB/s", Better: "higher", Moves: "throughput_mb_s on cold_extract"},
	{Name: "archive.extract_level_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on cold_extract"},
	{Name: "archive.extract_region_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on cold_extract"},

	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "op_p50_ms on serve_hot"},
	{Name: "server.cache_evictions", Unit: "count", Better: "lower", Moves: "op_p50_ms on serve_churn"},
	{Name: "server.decodes", Unit: "count", Better: "lower", Moves: "op_p50_ms on serve_churn"},
	{Name: "server.decodes_per_miss", Unit: "ratio", Better: "lower", Moves: "op_p50_ms on serve_churn"},
	{Name: "server.level_inproc_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on serve_hot"},
	{Name: "server.region_inproc_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on serve_hot"},
	{Name: "server.assemble_mb_s", Unit: "MB/s", Better: "higher", Moves: "throughput_mb_s on serve_hot"},
	{Name: "server.http_self_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on serve_hot"},
	{Name: "server.http_p99_ms", Unit: "ms", Better: "lower", Moves: "op_p95_ms on serve_hot"},
	{Name: "server.ingest_mb_s", Unit: "MB/s", Better: "higher", Moves: "throughput_mb_s on serve_churn"},
	{Name: "server.ingest_post_ms", Unit: "ms", Better: "lower", Moves: "throughput_mb_s on serve_churn"},
	{Name: "server.ingest_rejected", Unit: "count", Better: "lower", Moves: "throughput_mb_s on serve_churn"},
	{Name: "server.ingest_generation", Unit: "count", Better: "higher", Moves: "throughput_mb_s on serve_churn"},

	{Name: "remote.origin_requests", Unit: "count", Better: "lower", Moves: "op_p50_ms on serve_churn"},
	{Name: "remote.origin_bytes", Unit: "B", Better: "lower", Moves: "archive.read_amp on serve_churn"},
	{Name: "remote.origin_busy_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on serve_churn"},
	{Name: "remote.readat_p50_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on serve_churn"},
	{Name: "remote.hit_ratio", Unit: "ratio", Better: "higher", Moves: "op_p50_ms on serve_churn"},
	{Name: "remote.fills_per_miss", Unit: "ratio", Better: "lower", Moves: "op_p50_ms on serve_churn"},

	{Name: "proc.alloc_mb_per_op", Unit: "MB", Better: "lower", Moves: "context for every row"},
	{Name: "proc.heap_peak_mb", Unit: "MB", Better: "lower", Moves: "context for every row"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "op_p95_ms on all"},
	{Name: "proc.cpu_s", Unit: "s", Better: "lower", Moves: "context for every row"},
	{Name: "proc.cpu_util", Unit: "ratio", Better: "higher", Moves: "context: far below 1 names a serial section"},
	{Name: "proc.memcpy_gb_s", Unit: "GB/s", Better: "higher", Moves: "context: a kernel near it gains from fewer bytes"},
	{Name: "proc.machine_speed", Unit: "ratio", Better: "higher", Moves: "none: what the end-to-end timings were scaled by; the per-layer timings are raw"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Moves: "none: qualifies the other rows"},
	{Name: "trace.unattributed_share", Unit: "ratio", Better: "lower", Moves: "none: qualifies the other rows"},
}

// find returns the row of defs with the given name, or the zero row.
func find(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.Name == name {
			return d
		}
	}
	return metricDef{}
}
