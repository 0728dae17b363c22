// Command wsrssim runs a single simulation: one benchmark kernel (or
// a program file) on one machine configuration, and prints a detailed
// report.
//
// Usage:
//
//	wsrssim -kernel gzip -config "WSRS RC S 512"
//	wsrssim -kernel mcf -config "RR 256" -warmup 50000 -measure 200000
//	wsrssim -kernel gzip -config "WSRS RC S 512" -stats
//	wsrssim -kernel gzip -pipeview -measure 2000
//	wsrssim -kernel gzip -events trace.jsonl
//	wsrssim -program prog.s -config "RR 256"
//	wsrssim -kernel gzip -check
//	wsrssim -kernel gzip -check -inject map@5000
//	wsrssim -list
//
// On a self-check failure the process prints the one-line checker
// verdict (cell, cycle, checker) plus the diagnostic dump and exits
// non-zero; it never dies with a Go panic trace.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"wsrs"
)

func main() {
	kernel := flag.String("kernel", "gzip", "benchmark kernel name")
	program := flag.String("program", "", "assembly file to run instead of a kernel")
	config := flag.String("config", string(wsrs.ConfRR256), "machine configuration")
	policy := flag.String("policy", "", "override allocation policy (RR, RM, RC, RC-bal, RC-dep)")
	warmup := flag.Uint64("warmup", 20_000, "warmup instructions")
	measure := flag.Uint64("measure", 100_000, "measured instructions (0: to end of program)")
	seed := flag.Int64("seed", 1, "allocation-policy random seed")
	xdelay := flag.Int("xdelay", -1, "override inter-cluster forwarding delay")
	regs := flag.Int("regs", 0, "override total physical register count")
	impl1 := flag.Int("impl1", 0, "use renaming implementation 1 with this recycle depth")
	checkFlag := flag.Bool("check", false, "run the self-checking layer: co-simulation oracle, WS/RS legality checks, structural audits")
	injectSpec := flag.String("inject", "", "inject one fault as kind@cycle (kinds: "+strings.Join(wsrs.FaultKinds(), ", ")+"); implies -check")
	maxCycles := flag.Int64("max-cycles", 0, "fail the run once it reaches this many simulated cycles (0 = unbounded)")
	watchdog := flag.Int64("watchdog", 0, "forward-progress watchdog window in cycles (0 = default 200000)")
	auditEvery := flag.Int64("audit-every", 0, "structural-audit cadence in cycles (0 = default 1024, negative disables)")
	stats := flag.Bool("stats", false, "print the commit-slot stall stack, dispatch-stall refinement and occupancy histograms")
	pipeview := flag.Bool("pipeview", false, "print a per-micro-op pipeline timeline (Konata-style text) of the measured window")
	events := flag.String("events", "", "write per-micro-op lifecycle events as JSONL to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace (Perfetto-loadable) of the measured pipeline window to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file")
	list := flag.Bool("list", false, "list kernels, configurations and policies")
	flag.Parse()

	if *list {
		fmt.Println("kernels:       ", strings.Join(wsrs.Kernels(), ", "))
		fmt.Print("configurations:")
		for _, c := range wsrs.AllConfigs() {
			fmt.Printf("  %q", string(c))
		}
		fmt.Println()
		fmt.Println("policies:      ", strings.Join(wsrs.PolicyNames(), ", "))
		return
	}

	// Validate the configuration and policy names before any
	// simulation (or profile file) is touched, so a typo fails fast
	// with the valid choices listed.
	conf, err := wsrs.ValidateConfigName(*config)
	if err != nil {
		fatal(err)
	}
	if err := wsrs.ValidatePolicyName(*policy); err != nil {
		fatal(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	opts := wsrs.SimOpts{
		WarmupInsts:  *warmup,
		MeasureInsts: *measure,
		Seed:         *seed,
		Check:        *checkFlag,
		AuditEvery:   *auditEvery,
		Watchdog:     *watchdog,
		MaxCycles:    *maxCycles,
	}
	if *injectSpec != "" {
		fault, ferr := wsrs.ParseFault(*injectSpec)
		if ferr != nil {
			fatal(ferr)
		}
		opts.Inject = fault
	}
	var prb *wsrs.Probe
	if *stats || *pipeview || *events != "" || *traceOut != "" {
		prb = wsrs.NewProbe(wsrs.ProbeOptions{
			Events:    *pipeview || *events != "" || *traceOut != "",
			Stalls:    true,
			Occupancy: *stats,
		})
		opts.Probe = prb
	}
	var mods []wsrs.MachineOption
	if *xdelay >= 0 {
		mods = append(mods, wsrs.WithXClusterDelay(*xdelay))
	}
	if *regs > 0 {
		mods = append(mods, wsrs.WithRegisters(*regs), wsrs.WithDeadlockMoves())
	}
	if *impl1 > 0 {
		mods = append(mods, wsrs.WithRenameImpl1(*impl1))
	}

	cell := *kernel
	if *program != "" {
		cell = *program
	}
	res, err := contained(func() (wsrs.Result, error) {
		if *program != "" {
			src, rerr := os.ReadFile(*program)
			if rerr != nil {
				return wsrs.Result{}, rerr
			}
			return wsrs.RunProgram(conf, string(src), nil, opts)
		}
		return wsrs.RunKernelWith(conf, *kernel, opts, *policy, mods...)
	})
	if err != nil {
		fatal(fmt.Errorf("%s/%s: %w", cell, conf, err))
	}
	if opts.Inject != nil {
		// An injected fault that the run survives is itself a failure:
		// it means the checker guarding that structure did not fire.
		if desc, at, ok := opts.Inject.Applied(); ok {
			fatal(fmt.Errorf("%s/%s: fault %s injected at cycle %d (%s) but no checker fired",
				cell, conf, opts.Inject, at, desc))
		}
		fatal(fmt.Errorf("%s/%s: fault %s never found a victim to corrupt",
			cell, conf, opts.Inject))
	}
	print(res)
	if *checkFlag {
		fmt.Println("self-check            passed (oracle, legality checks, structural audits)")
	}
	printEnergy(conf, res)

	if prb != nil {
		report(prb, *stats, *pipeview, *events, *traceOut)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// printEnergy renders the run's activity counts and its priced
// dynamic energy stack.
func printEnergy(conf wsrs.ConfigName, r wsrs.Result) {
	a := &r.Activity
	fmt.Println()
	fmt.Printf("activity (measured window)\n")
	fmt.Printf("  RF reads / writes    %d / %d  (per subset: reads %v, writes %v)\n",
		a.RegReadTotal(), a.RegWriteTotal(), a.RegReads, a.RegWrites)
	fmt.Printf("  wake-up events       %d  (per domain: %v)\n", a.WakeupTotal(), a.Wakeup)
	fmt.Printf("  bypass drives        %d  (per domain: %v)\n", a.BypassDriveTotal(), a.BypassDrives)
	fmt.Printf("  bypass uses          %d  (local %d, cross %d)\n", a.BypassUseTotal(), a.BypassLocal, a.BypassCross)
	fmt.Printf("  cross-cluster moves  %d\n", a.Moves)
	fmt.Printf("  free-list stalls     %d slots\n", a.FreeListStallTotal())
	m, err := wsrs.EnergyModelFor(conf)
	if err != nil {
		fmt.Printf("  (no energy model: %v)\n", err)
		return
	}
	s := m.Stack(a, r.Insts)
	fmt.Printf("energy stack (pJ/instruction, model)\n")
	fmt.Printf("  RF read              %.2f\n", s.PJPerInst(s.RegReadNJ))
	fmt.Printf("  RF write             %.2f\n", s.PJPerInst(s.RegWriteNJ))
	fmt.Printf("  wake-up broadcast    %.2f\n", s.PJPerInst(s.WakeupNJ))
	fmt.Printf("  bypass network       %.2f\n", s.PJPerInst(s.BypassNJ))
	fmt.Printf("  move micro-ops       %.2f\n", s.PJPerInst(s.MoveNJ))
	fmt.Printf("  total                %.2f\n", s.TotalPJPerInst())
}

// report renders the probe's observations after the summary: stall
// tables on stdout, the pipeview timeline on stdout, and the JSONL
// event dump and Chrome trace to their files.
func report(p *wsrs.Probe, stats, pipeview bool, events, traceOut string) {
	if stats {
		fmt.Println()
		p.Stall.Table("commit-slot stall stack").Render(os.Stdout)
		fmt.Println()
		p.Disp.Table("dispatch-slot stalls").Render(os.Stdout)
		fmt.Println()
		p.Occ.Table("occupancy (per measured cycle)").Render(os.Stdout)
	}
	if p.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "wsrssim: event buffer full, %d micro-ops not recorded\n", p.Dropped)
	}
	if pipeview {
		fmt.Println()
		w := bufio.NewWriter(os.Stdout)
		if err := wsrs.WritePipeview(w, p.Events); err != nil {
			fatal(err)
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
	}
	if events != "" {
		f, err := os.Create(events)
		if err != nil {
			fatal(err)
		}
		w := bufio.NewWriter(f)
		if err := wsrs.WriteJSONL(w, p.Events); err != nil {
			fatal(err)
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d lifecycle events to %s\n", len(p.Events), events)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fatal(err)
		}
		evs := wsrs.PipelineTrace(p.Events)
		if err := wsrs.WriteTrace(f, evs); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d trace events to %s (load in Perfetto / chrome://tracing)\n", len(evs), traceOut)
	}
}

// contained runs one simulation behind a recover barrier so an
// internal panic becomes a one-line diagnostic, not a stack trace.
func contained(f func() (wsrs.Result, error)) (res wsrs.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal panic: %v", r)
		}
	}()
	return f()
}

// fatal prints the one-line diagnostic — for checker failures the
// verdict names the cell, the cycle and the checker — then any
// multi-line diagnostic dump, and exits non-zero.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wsrssim:", err)
	var v *wsrs.CheckViolation
	if errors.As(err, &v) && v.Detail != "" {
		fmt.Fprintln(os.Stderr, v.Detail)
	}
	os.Exit(1)
}

func print(r wsrs.Result) {
	fmt.Printf("configuration        %s\n", r.Name)
	fmt.Printf("cycles               %d\n", r.Cycles)
	fmt.Printf("instructions         %d  (%d micro-ops)\n", r.Insts, r.Uops)
	fmt.Printf("IPC                  %.3f  (%.3f micro-op IPC)\n", r.IPC, r.UopIPC)
	fmt.Printf("cond branches        %d  (%.2f%% mispredicted)\n", r.CondBranches, 100*r.MispredictRate)
	fmt.Printf("window traps         %d\n", r.Traps)
	fmt.Printf("loads / stores       %d / %d\n", r.Mem.Loads, r.Mem.Stores)
	fmt.Printf("L1 hit rate          %.2f%%  (misses %d)\n", 100*r.Mem.L1HitRate(), r.Mem.L1Misses)
	fmt.Printf("L2 misses            %d\n", r.Mem.L2Misses)
	fmt.Printf("store forwards       %d\n", r.StoreForwards)
	fmt.Printf("stall slots          redirect=%d rename=%d window=%d\n",
		r.StallRedirect, r.StallRename, r.StallWindow)
	fmt.Printf("injected moves       %d  (re-steers %d)\n", r.InjectedMoves, r.Resteers)
	fmt.Printf("cluster loads        %v  (spread %.2f)\n", r.ClusterLoads, r.ClusterSpread)
	fmt.Printf("unbalancing degree   %.1f%%\n", r.UnbalancingDegree)
}
