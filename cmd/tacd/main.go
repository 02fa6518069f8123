// Command tacd serves TACA archives over HTTP: snapshot, level, and
// region extraction with a sharded block-level LRU cache in front of the
// pooled decoders, so a fleet of concurrent readers shares decode work
// instead of repeating it. Archives listed with -ingest are opened
// read-write and accept live snapshot appends over POST.
//
// Usage:
//
//	tacd [-listen :8080] [-cache-mb 256] [-workers 0]
//	     [-ingest] [-ingest-queue 4] [-keyframe 0] [-eb 0]
//	     [-read-header-timeout 10s] [-read-timeout 5m] [-idle-timeout 2m]
//	     [-request-timeout 0] [-scrub-interval 0]
//	     [-replica name=replica.taca ...] [-quarantine-after 0]
//	     [-remote-timeout 30s] [-remote-segment-kb 0] [-remote-cache-mb 32]
//	     archive.taca [name=other.taca ...]
//
// Each positional argument registers one archive, served under its base
// name with the extension stripped (or an explicit name=spec). A spec
// is a local .taca path or an http(s):// URL of a range-capable server
// — another tacd's /v1/a/{name}/raw endpoint, nginx, an S3-style store
// — so an edge tacd can mount archives straight off remote storage,
// fetching only the frames a request touches (internal/remote; the
// -remote-* flags tune its read-ahead cache). -replica attaches a
// healthy copy of an archive (path or URL) to its serving name
// (repeatable; a bare spec binds to the sole archive): reads fail over
// to replicas per read when the primary errors, and a quarantined
// member is automatically re-fetched, digest-verified, and spliced back
// into a file-backed primary — the 502 lifts without a restart.
// Endpoints (see internal/server for the full table):
//
//	GET  /v1/archives
//	GET  /v1/a/{name}
//	GET  /v1/a/{name}/raw
//	GET  /v1/a/{name}/snap/{i}
//	GET  /v1/a/{name}/snap/{i}/amr
//	GET  /v1/a/{name}/snap/{i}/level/{l}[?roi=x0:x1,y0:y1,z0:z1]
//	POST /v1/a/{name}/ingest        (with -ingest)
//	POST /v1/a/{name}/repair[?member=i]   (with -replica)
//	GET  /v1/stats
//	GET  /healthz                   (also /v1/healthz)
//
// On SIGINT/SIGTERM tacd drains gracefully: /healthz flips to 503 so
// load balancers stop routing here, in-flight requests and queued
// ingests finish, ingest archives are committed and sealed, then the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/codec"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/sz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tacd: ")
	listen := flag.String("listen", ":8080", "address to listen on")
	cacheMB := flag.Int64("cache-mb", 256, "decoded block-batch cache budget in MiB")
	workers := flag.Int("workers", 0, "per-request batch fan-out (0 = GOMAXPROCS, 1 = serial)")
	ingest := flag.Bool("ingest", false, "open archives read-write and accept POST /v1/a/{name}/ingest")
	ingestQueue := flag.Int("ingest-queue", server.DefaultIngestQueue, "queued snapshots per archive before 429s")
	keyframe := flag.Int("keyframe", 0, "delta-code ingested members with this keyframe interval (0 = intra only)")
	eb := flag.Float64("eb", 0, "error bound for ingested snapshots (0 = inherit from the archive's newest member)")
	drainWait := flag.Duration("drain-wait", 30*time.Second, "graceful shutdown budget for in-flight requests")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "time budget for a client to send its request headers (slowloris guard)")
	readTimeout := flag.Duration("read-timeout", 5*time.Minute, "time budget for a client to send a full request, ingest bodies included (0 = unbounded)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "how long an idle keep-alive connection is held open")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request extraction deadline; overruns answer 504 (0 = unbounded)")
	scrubInterval := flag.Duration("scrub-interval", 0, "background scrub period: verify every frame and quarantine damaged members (0 = off)")
	quarantineAfter := flag.Int("quarantine-after", 0, "corruption strikes before a member is quarantined (0 = default, negative = never)")
	remoteTimeout := flag.Duration("remote-timeout", remote.DefaultTimeout, "per-range-request deadline for URL-backed archives")
	remoteSegKB := flag.Int("remote-segment-kb", 0, "read-ahead segment size for URL-backed archives, KiB (0 = auto-tune to the archive's frame size)")
	remoteCacheMB := flag.Int64("remote-cache-mb", remote.DefaultCacheBytes>>20, "per-archive read-ahead cache budget for URL-backed archives, MiB (negative = off)")
	var replicaSpecs []string
	flag.Func("replica", "replica for an archive, as name=spec where spec is a path or URL (repeatable; bare spec binds to the sole archive)", func(v string) error {
		replicaSpecs = append(replicaSpecs, v)
		return nil
	})
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tacd [-listen :8080] [-cache-mb 256] [-workers 0] [-ingest] [-replica name=replica.taca] archive.taca|http://host/v1/a/name/raw [name=other.taca ...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *keyframe == 1 || *keyframe < 0 {
		log.Fatalf("-keyframe must be 0 (off) or >= 2 (got %d)", *keyframe)
	}
	// Bind each -replica to its archive's serving name before anything is
	// opened, so typos fail fast instead of silently serving unreplicated.
	replicas := make(map[string][]string)
	for _, rs := range replicaSpecs {
		name, path, ok := strings.Cut(rs, "=")
		if !ok || strings.ContainsAny(name, "/:") {
			// No name part (or the "name" is really a path/URL prefix):
			// a bare spec binds to the sole served archive.
			if flag.NArg() != 1 {
				log.Fatalf("-replica %q: name=spec form is required when serving more than one archive", rs)
			}
			name, _ = server.SplitSpec(flag.Arg(0))
			path = rs
		}
		replicas[name] = append(replicas[name], path)
	}
	if *ingest && len(replicas) > 0 {
		// The repair splice and the append tail would race over the same
		// file region; replicated archives are read-only for now.
		log.Fatal("-replica cannot be combined with -ingest")
	}

	s := server.New(server.Config{
		CacheBytes:      *cacheMB << 20,
		Workers:         *workers,
		IngestQueue:     *ingestQueue,
		RequestTimeout:  *requestTimeout,
		ScrubInterval:   *scrubInterval,
		QuarantineAfter: *quarantineAfter,
	})
	rcfg := remote.Config{
		Timeout:      *remoteTimeout,
		SegmentBytes: *remoteSegKB << 10,
		CacheBytes:   *remoteCacheMB << 20,
	}
	if *remoteCacheMB < 0 {
		rcfg.CacheBytes = -1
	}
	for _, arg := range flag.Args() {
		name, primary := server.SplitSpec(arg)
		reps := replicas[name]
		delete(replicas, name)
		spec := server.ArchiveSpec{
			Primary:  primary,
			Replicas: reps,
			Remote:   rcfg,
		}
		if *ingest {
			spec.Append = true
			spec.Ingest = codec.Config{ErrorBound: *eb, Workers: -1}
			spec.Keyframe = *keyframe
		}
		if _, err := s.Add(name, spec); err != nil {
			log.Fatal(err)
		}
		mode := "ro"
		switch {
		case *ingest:
			mode = "rw"
		case len(reps) > 0:
			mode = fmt.Sprintf("ro, %d replicas", len(reps))
		}
		if remote.IsURL(primary) {
			mode += ", remote"
		}
		log.Printf("serving %s as /v1/a/%s (%s)", primary, name, mode)
	}
	for name := range replicas {
		log.Fatalf("-replica %s=...: no archive is served under that name", name)
	}
	log.Printf("listening on %s (%d archives, cache %d MiB, %s codec kernels)",
		*listen, len(s.Names()), *cacheMB, sz.KernelPath())

	// No WriteTimeout: level and snapshot responses stream and can
	// legitimately take a while on slow links; the read-side timeouts are
	// what keep a hostile client from pinning connections open for free.
	srv := &http.Server{
		Addr:              *listen,
		Handler:           s.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		s.Close()
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("%s: draining (up to %s)", sig, *drainWait)
	}

	// Drain order matters: flip healthz first so balancers stop sending
	// traffic, let the listener finish in-flight requests (including
	// ingests waiting on their commit), then seal the archives.
	s.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v (closing anyway)", err)
	}
	if err := s.Close(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("sealing archives: %v", err)
	}
	log.Print("drained")
}
