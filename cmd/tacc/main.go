// Command tacc is the offline TAC tool: .amr snapshots through TAC or the
// paper's baselines, .taca archives, the synthetic Table-1 datasets and
// the paper's exhibits. Run it without arguments for its subcommands.
//
// The global -cpuprofile/-memprofile flags write runtime/pprof profiles
// of whatever subcommand follows, so perf work can profile the real
// pipeline on real files instead of guessing from microbenchmarks:
//
//	tacc -cpuprofile cpu.pprof compress -eb 1e9 in.amr out.tacz
//	go tool pprof cpu.pprof
//
// Exit status: 0 on success, 1 when a subcommand fails (one "tacc: ..."
// line on stderr), 2 on a command line it cannot run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/remote"
	"repro/internal/replica"
	"repro/internal/sz"
)

// command is one subcommand: run's dispatch and usage both read it.
type command struct {
	name, synopsis string
	run            func(args []string, stdout io.Writer) error
}

var commands = []command{
	{"compress", "[-codec TAC|1D|zMesh|3D] [-eb 1e9] [-rel] [-scales 3,1] [-adaptive] in.amr out.tacz", compress},
	{"decompress", "in.tacz out.amr", decompress},
	{"info", "in.amr", info},
	{"verify", "[-codec ...] [-eb ...] [-rel] [-scales ...] in.amr | in.taca  (round trip of a snapshot; scrub of an archive)", verify},
	{"repair", "-replica replica.taca in.taca  (splice damaged frames back from a replica)", repair},
	{"errmap", "[-codec ...] [-eb ...] [-rel] [-level 0] [-slice -1] in.amr out.png", errmap},
	{"archive", "[-eb 1e9] [-rel] [-scales 3,1] [-workers -1] [-batch 64] [-append] [-keyframe 0] out.taca in.amr...", archiveCmd},
	{"ls", "in.taca", ls},
	{"extract", "[-member 0] [-level -1] [-roi x0:x1,y0:y1,z0:z1] in.taca out.amr", extract},
	{"gen", "[-scale 4] [-field baryon_density] [-dataset Run1_Z10] [-out data]  (synthetic Table-1 snapshots)", gen},
	{"exhibits", "[-scale 4] [-only table1] [-list]  (the paper's tables and figures)", exhibits},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is tacc with its command line and output streams as arguments, so
// tests drive it in-process. It returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	global := newFlags("tacc")
	cpuprofile := global.String("cpuprofile", "", "write a CPU profile of the subcommand to this file")
	memprofile := global.String("memprofile", "", "write a heap profile (taken after the subcommand) to this file")
	global.SetOutput(io.Discard)
	// Parse stops at the first non-flag argument: the subcommand.
	err := global.Parse(args)
	var cmd *command
	for i := range commands {
		if err == nil && global.Arg(0) == commands[i].name {
			cmd = &commands[i]
		}
	}
	if cmd == nil {
		if err == nil && global.NArg() > 0 {
			err = fmt.Errorf("unknown subcommand %q", global.Arg(0))
		}
		if err != nil && !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(stderr, "tacc: %v\n", err)
		}
		usage(stderr, nil, global)
		return 2
	}
	err = profiled(*cpuprofile, *memprofile, func() error { return cmd.run(global.Args()[1:], stdout) })
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ue):
		if !errors.Is(ue.error, flag.ErrHelp) {
			fmt.Fprintf(stderr, "tacc: %s: %v\n", cmd.name, ue.error)
		}
		usage(stderr, cmd, ue.fs)
		return 2
	default:
		fmt.Fprintf(stderr, "tacc: %v\n", err)
		return 1
	}
}

// usage prints cmd's synopsis, or every subcommand's when cmd is nil,
// followed by the flags of fs.
func usage(w io.Writer, cmd *command, fs *flag.FlagSet) {
	if cmd != nil {
		fmt.Fprintf(w, "usage: tacc %s %s\n", cmd.name, cmd.synopsis)
	} else {
		fmt.Fprintln(w, "usage: tacc [-cpuprofile cpu.pprof] [-memprofile mem.pprof] <subcommand> ...")
		for _, c := range commands {
			fmt.Fprintf(w, "  tacc %-10s %s\n", c.name, c.synopsis)
		}
	}
	fs.SetOutput(w)
	fs.PrintDefaults()
}

// profiled runs fn inside the CPU profile and writes the heap profile
// after it, whether fn fails or not.
func profiled(cpu, mem string, fn func() error) (err error) {
	if cpu != "" {
		f, ferr := os.Create(cpu)
		if ferr != nil {
			return ferr
		}
		if ferr := pprof.StartCPUProfile(f); ferr != nil {
			f.Close()
			return ferr
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, f.Close())
		}()
	}
	err = fn()
	if mem != "" {
		f, ferr := os.Create(mem)
		if ferr == nil {
			runtime.GC()
			ferr = errors.Join(pprof.WriteHeapProfile(f), f.Close())
		}
		err = errors.Join(err, ferr)
	}
	return err
}

// usageError is a command line a subcommand cannot run: run prints it
// with the subcommand's synopsis and the flags of fs, and exits 2.
type usageError struct {
	error
	fs *flag.FlagSet
}

// newFlags returns a flag set whose errors come back from Parse, for run
// to report, instead of exiting.
func newFlags(name string) *flag.FlagSet { return flag.NewFlagSet(name, flag.ContinueOnError) }

// parseArgs parses args into fs and returns the positional arguments,
// of which there must be at least min and, when max >= 0, at most max.
func parseArgs(fs *flag.FlagSet, args []string, min, max int) ([]string, error) {
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return nil, usageError{err, fs}
	}
	rest := fs.Args()
	if len(rest) < min || max >= 0 && len(rest) > max {
		return nil, usageError{fmt.Errorf("%d arguments given", len(rest)), fs}
	}
	return rest, nil
}

// boundFlags registers the error-bound flags of every subcommand that
// compresses, each parsed straight into cfg.
func boundFlags(fs *flag.FlagSet, cfg *codec.Config) {
	fs.Float64Var(&cfg.ErrorBound, "eb", 1e9, "error bound")
	fs.BoolFunc("rel", "interpret -eb as value-range-relative", func(s string) error {
		rel, err := strconv.ParseBool(s)
		cfg.Mode = sz.Abs
		if rel {
			cfg.Mode = sz.Rel
		}
		return err
	})
	fs.Func("scales", "per-level error-bound multipliers, fine to coarse (e.g. 3,1)", func(s string) error {
		cfg.LevelScales = nil
		for _, part := range strings.Split(s, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return err
			}
			cfg.LevelScales = append(cfg.LevelScales, v)
		}
		return nil
	})
}

// openArchive opens a .taca archive named by a local path or an http(s)://
// URL (replica.Open). ls, extract and verify work identically on a file or
// a URL; over a URL only the footer and the frames a command touches are
// fetched.
func openArchive(spec string) (*archive.Reader, io.Closer, error) {
	src, size, err := replica.Open(spec, remote.Config{})
	if err != nil {
		return nil, nil, err
	}
	r, err := archive.Open(src, size)
	if err != nil {
		src.Close()
		return nil, nil, fmt.Errorf("%s: %w", spec, err)
	}
	return r, src, nil
}
