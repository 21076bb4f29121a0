// Command hammertrace generates and analyzes memory-access traces.
//
// Generate a trace from a synthetic workload:
//
//	hammertrace gen -workload zipf -count 100000 -out trace.jsonl
//
// Summarize a trace (hottest DRAM rows under the default mapping — the
// offline view of what an ACT counter sees):
//
//	hammertrace stats -in trace.jsonl -top 10
package main

import (
	"flag"
	"fmt"
	"os"

	"hammertime/internal/addr"
	"hammertime/internal/cpu"
	"hammertime/internal/dram"
	"hammertime/internal/report"
	"hammertime/internal/sim"
	"hammertime/internal/trace"
	"hammertime/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: hammertrace gen|stats [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = genCmd(os.Args[2:])
	case "stats":
		err = statsCmd(os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q (want gen or stats)", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hammertrace:", err)
		os.Exit(1)
	}
}

func genCmd(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var (
		wl    = fs.String("workload", "zipf", "workload: stream, random, zipf, chase")
		count = fs.Int("count", 100_000, "accesses to generate")
		nline = fs.Uint64("lines", 65536, "working-set size in cache lines")
		skew  = fs.Float64("skew", 0.99, "zipfian skew")
		seed  = fs.Uint64("seed", 1, "generator seed")
		out   = fs.String("out", "-", "output file (- for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	flat := make([]uint64, *nline)
	for i := range flat {
		flat[i] = uint64(i)
	}
	lines := workload.Flat(flat)
	rng := sim.NewRNG(*seed)
	var prog cpu.Program
	var err error
	switch *wl {
	case "stream":
		prog, err = workload.Stream(lines, *count, 0)
	case "random":
		prog, err = workload.Random(lines, *count, 0, 0.3, rng)
	case "zipf":
		prog, err = workload.Zipfian(lines, *count, 0, *skew, rng)
	case "chase":
		prog, err = workload.PointerChase(lines, *count, 0, rng)
	default:
		return fmt.Errorf("unknown workload %q", *wl)
	}
	if err != nil {
		return err
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "hammertrace: close:", cerr)
			}
		}()
		w = f
	}
	tw := trace.NewWriter(w)
	rec := trace.Record(prog, tw)
	for {
		if _, ok := rec.Next(); !ok {
			break
		}
	}
	if tw.Count() != uint64(*count) {
		return fmt.Errorf("recorded %d of %d accesses (sink failed?)", tw.Count(), *count)
	}
	fmt.Fprintf(os.Stderr, "wrote %d events\n", tw.Count())
	return nil
}

func statsCmd(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	var (
		in  = fs.String("in", "-", "input trace (- for stdin)")
		top = fs.Int("top", 10, "rows to print")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	events, err := trace.Read(r)
	if err != nil {
		return err
	}
	mapper := addr.NewLineInterleave(dram.DefaultGeometry())
	stats := trace.Summarize(events, mapper)
	tb := report.NewTable(
		fmt.Sprintf("hottest rows of %d accesses over %d rows", len(events), len(stats)),
		"bank", "row", "accesses")
	for i, s := range stats {
		if i >= *top {
			break
		}
		tb.AddRowf(s.Bank, s.Row, s.Accesses)
	}
	return tb.Render(os.Stdout)
}
