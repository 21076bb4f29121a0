// Command hammersim runs a single Rowhammer scenario: it builds a
// multi-tenant machine with the chosen DRAM generation and defense,
// launches the chosen attack from tenant 1 while the remaining tenants
// run benign workloads, and prints the outcome.
//
// Usage:
//
//	hammersim [-defense none] [-attack double] [-profile ddr4-old]
//	          [-horizon 4000000] [-tenants 3] [-pages 170] [-stats]
//	          [-check] [-fail-soft] [-retries N] [-cell-timeout 30s]
//	          [-trace-events f -trace-format jsonl|chrome]
//	          [-metrics-out f.json] [-pprof-cpu f] [-pprof-http addr]
//
// Attacks: single, double, many:<k>, dma. Defenses: see -list.
//
// -trace-events records the full simulator event stream (ACT/PRE/REF,
// row-buffer outcomes, defense triggers, bit flips, ...); with
// -trace-format=chrome the file opens directly in Perfetto or
// chrome://tracing, one track per bank plus defense/system tracks.
// -metrics-out dumps every counter, gauge, per-bank vector and histogram
// as JSON. Recording is observer-only: results are byte-identical with
// or without it.
//
// -check turns on the online invariant auditor (internal/check): the
// machine's event stream feeds an independent shadow model that verifies
// row-buffer legality, DDR command ordering, refresh cadence and
// coverage, and charge conservation as the run executes, and the final
// DRAM state bit for bit afterwards. Observer-only — results are
// byte-identical with or without it — and a violation fails the run
// with the offending event and a trace of its predecessors.
//
// The scenario runs under the harness robustness policy: -retries and
// -cell-timeout bound a flaky or hung simulation, and with -fail-soft a
// crash degrades into a reported ERR(reason) line and exit code 0
// instead of aborting — useful when hammersim runs as one step of a
// larger scripted sweep. -faults cell.panic=sim/0 (or cell.error,
// cell.once) injects a failure into the scenario to exercise that path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hammertime/internal/attack"
	"hammertime/internal/cliutil"
	"hammertime/internal/core"
	"hammertime/internal/defense"
	"hammertime/internal/dram"
	"hammertime/internal/harness"
	"hammertime/internal/report"
	"hammertime/internal/trace"
)

func main() {
	var (
		defenseName = flag.String("defense", "none", "defense to enable (see -list)")
		attackName  = flag.String("attack", "double", "attack: single, double, many:<k>, dma")
		profileName = flag.String("profile", "lpddr4", "DRAM generation: ddr3, ddr4-old, ddr4-new, lpddr4, future")
		horizon     = flag.Uint64("horizon", 4_000_000, "simulation horizon in cycles")
		tenants     = flag.Int("tenants", 3, "number of tenant domains (tenant 1 attacks)")
		pages       = flag.Int("pages", 170, "pages allocated per tenant")
		seed        = flag.Uint64("seed", 1, "simulation seed")
		integrity   = flag.Bool("integrity", false, "victims are integrity-checked enclaves (§4.4)")
		stats       = flag.Bool("stats", false, "dump all simulator counters")
		traceOut    = flag.String("trace-out", "", "record the attacker's access stream to this file")
		traceIn     = flag.String("trace-in", "", "replay a recorded stream as the attack instead of planning one")
		list        = flag.Bool("list", false, "list available defenses and exit")
		obsFlags    cliutil.ObsFlags
		robust      cliutil.RobustFlags
	)
	obsFlags.Register()
	robust.Register(os.Getenv(cliutil.FaultsEnv))
	flag.Parse()
	if *list {
		fmt.Println("defenses:", strings.Join(defense.Names(), " "))
		return
	}
	ctx, stop := cliutil.ShutdownContext()
	defer stop()
	if err := run(ctx, *defenseName, *attackName, *profileName, *horizon, *tenants, *pages, *seed, *integrity, *stats, *traceOut, *traceIn, obsFlags, robust); err != nil {
		if errors.Is(err, core.ErrCancelled) || errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "hammersim: interrupted:", err)
		} else {
			fmt.Fprintln(os.Stderr, "hammersim:", err)
		}
		os.Exit(1)
	}
}

func profileByName(name string) (dram.DisturbanceProfile, error) {
	switch strings.ToLower(name) {
	case "ddr3":
		return dram.DDR3(), nil
	case "ddr4-old":
		return dram.DDR4Old(), nil
	case "ddr4-new":
		return dram.DDR4New(), nil
	case "lpddr4":
		return dram.LPDDR4(), nil
	case "future":
		return dram.FutureDense(), nil
	default:
		return dram.DisturbanceProfile{}, fmt.Errorf("unknown profile %q", name)
	}
}

func attackByName(name string) (attack.Kind, error) {
	switch {
	case name == "single":
		return attack.Kind{Name: "single-sided", Sided: 1}, nil
	case name == "double":
		return attack.Kind{Name: "double-sided", Sided: 2}, nil
	case name == "dma":
		return attack.Kind{Name: "dma-double-sided", Sided: 2, DMA: true}, nil
	case strings.HasPrefix(name, "many:"):
		k, err := strconv.Atoi(strings.TrimPrefix(name, "many:"))
		if err != nil || k < 3 {
			return attack.Kind{}, fmt.Errorf("bad many-sided count in %q", name)
		}
		return attack.Kind{Name: fmt.Sprintf("many-sided(%d)", k), Sided: k}, nil
	default:
		return attack.Kind{}, fmt.Errorf("unknown attack %q (want single, double, many:<k>, dma)", name)
	}
}

func run(ctx context.Context, defenseName, attackName, profileName string, horizon uint64, tenants, pages int, seed uint64, integrity, stats bool, traceOut, traceIn string, obsFlags cliutil.ObsFlags, robust cliutil.RobustFlags) (err error) {
	d, err := defense.New(defenseName)
	if err != nil {
		return err
	}
	kind, err := attackByName(attackName)
	if err != nil {
		return err
	}
	prof, err := profileByName(profileName)
	if err != nil {
		return err
	}
	spec := core.DefaultSpec()
	spec.Profile = prof
	spec.Seed = seed

	session, err := obsFlags.Start(false)
	if err != nil {
		return err
	}
	// Teardown errors (an unflushed trace sink, a failed profile close)
	// must reach the exit code, not just stderr.
	defer func() {
		if cerr := session.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close observability: %w", cerr)
		}
	}()
	hrun, err := robust.Apply(session.Recorder)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := hrun.Checkpoint.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("resume: %w", cerr)
		}
	}()
	// With -trace-events the run's spans (machine.run, machine.drain)
	// are recorded alongside the event stream and exported at Close.
	ctx = harness.WithRun(session.Context(ctx), hrun)

	opts := harness.AttackOpts{
		Horizon:         horizon,
		Tenants:         tenants,
		PagesPerTenant:  pages,
		VictimIntegrity: integrity,
		Observer:        session.Recorder,
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("close trace: %w", cerr)
			}
		}()
		opts.AttackTrace = f
	}
	if traceIn != "" {
		f, err := os.Open(traceIn)
		if err != nil {
			return err
		}
		events, err := trace.Read(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		opts.ReplayAttack = events
	}

	// The scenario runs under the robustness policy: panics are contained,
	// -retries/-cell-timeout apply, and with -fail-soft a failure degrades
	// into a reported ERR line instead of a non-zero exit.
	out, ce := harness.GuardedCtx(ctx, "sim", func(ctx context.Context) (harness.AttackOutcome, error) {
		return harness.RunAttackCtx(ctx, spec, d, kind, opts)
	})
	if ce != nil {
		if !robust.FailSoft {
			return ce
		}
		fmt.Printf("machine:   %s, defense %s (%s class)\n", prof.Name, defenseName, d.Class())
		fmt.Printf("result:    %s\n", report.ErrCell(ce.Reason()))
		fmt.Println("verdict:   DEGRADED (fail-soft: scenario did not complete)")
		return nil
	}

	fmt.Printf("machine:   %s, %d banks x %d subarrays, defense %s (%s class)\n",
		prof.Name, spec.Geometry.Banks, spec.Geometry.SubarraysPerBank, out.Defense,
		d.Class())
	fmt.Printf("attack:    %s (planned as %s, cross-domain targets: %v)\n",
		out.Attack, out.PlanKind, out.PlannedCross)
	fmt.Printf("horizon:   %d cycles, ACTs issued: %d\n",
		horizon, out.Result.Stats.Counter("mc.acts"))
	fmt.Printf("result:    %d bit flips total, %d cross-domain\n", out.Flips, out.CrossFlips)
	if out.LockedUp {
		fmt.Println("integrity: machine LOCKED UP (detected corruption, denial of service)")
	}
	verdict := "attack DEFEATED"
	if out.Succeeded() {
		verdict = "attack SUCCEEDED (cross-domain corruption)"
	}
	fmt.Println("verdict:  ", verdict)
	fmt.Printf("benign:    %d tenant accesses completed\n", out.BenignSteps)
	if stats {
		fmt.Println("--- counters ---")
		fmt.Print(out.Result.Stats.String())
	}
	if err := session.WriteMetrics(out.Result.Stats.Snapshot()); err != nil {
		return err
	}
	return nil
}
