package wsrs

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestParseModsCanonical(t *testing.T) {
	opts, err := ParseMods("clusters=2,iq=32,regs=256,rob=128,subsets=1,width=2")
	if err != nil {
		t.Fatalf("canonical string rejected: %v", err)
	}
	if len(opts) != 6 {
		t.Fatalf("got %d options, want 6", len(opts))
	}
	if opts, err := ParseMods(""); err != nil || opts != nil {
		t.Fatalf("empty mods: got %v, %v", opts, err)
	}
	bad := map[string]string{
		"flux=3":             "unknown key",
		"iq=32,iq=32":        "duplicate",
		"width=2,clusters=4": "sorted order",
		"iq=lots":            "not an integer",
		"clusters=16":        "out of range",
		"iq":                 "malformed pair",
		"iq=":                "malformed pair",
		"regs=95":            "out of range",
	}
	for s, frag := range bad {
		if _, err := ParseMods(s); err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("ParseMods(%q) = %v, want error containing %q", s, err, frag)
		}
	}
}

// TestModsChangeMachine runs tiny simulations through the named-mods
// path at non-default cluster counts and widths, proving the engine is
// general beyond the paper's 8-way 4-cluster point and that a mod
// actually changes the outcome.
func TestModsChangeMachine(t *testing.T) {
	t.Parallel()
	opts := SimOpts{WarmupInsts: 2_000, MeasureInsts: 8_000}
	run := func(mods string) Result {
		t.Helper()
		ms, err := ParseMods(mods)
		if err != nil {
			t.Fatalf("ParseMods(%q): %v", mods, err)
		}
		res, err := runCell(GridCell{
			Kernel: "gzip", Config: ConfRR256, Policy: "RR",
			Mods: ms, ModsKey: mods,
		}, opts)
		if err != nil {
			t.Fatalf("runCell(%q): %v", mods, err)
		}
		return res
	}
	base := run("")
	narrow := run("clusters=2,width=2")
	wide := run("clusters=8,width=2")
	if narrow.Cycles == base.Cycles {
		t.Errorf("2-cluster run identical to 4-cluster baseline (mods ignored?)")
	}
	if wide.Cycles == base.Cycles {
		t.Errorf("8-cluster run identical to 4-cluster baseline (mods ignored?)")
	}
	again := run("clusters=2,width=2")
	if again.IPC != narrow.IPC || again.Cycles != narrow.Cycles {
		t.Errorf("modded run not deterministic: %+v vs %+v", again, narrow)
	}
}

// TestNoAcceptedMachineDeadlocks samples machines across ParseMods's
// whole domain — each key present or absent, every base configuration
// and policy — keeps the ones ValidateCell accepts, and runs each on
// every kernel at a short window. No cell may trip the watchdog:
// anything the API accepts must make forward progress. Register, IQ
// and ROB sizes are drawn log-uniformly, so machines whose subsets
// hold fewer registers than the rename map (the §2.3 deadlock, which
// the always-on move workaround resolves) come up often.
func TestNoAcceptedMachineDeadlocks(t *testing.T) {
	t.Parallel()
	const points = 100
	rng := rand.New(rand.NewSource(1))
	logUniform := func(min, max int) int {
		return int(math.Round(float64(min) * math.Pow(float64(max)/float64(min), rng.Float64())))
	}
	draw := map[string]func() int{
		"clusters": func() int { return 1 + rng.Intn(8) },
		"iq":       func() int { return logUniform(4, 512) },
		"regs":     func() int { return logUniform(96, 4096) },
		"rob":      func() int { return logUniform(8, 1024) },
		"subsets":  func() int { return 1 + rng.Intn(8) },
		"width":    func() int { return 1 + rng.Intn(8) },
	}
	confs := AllConfigs()
	policies := append([]string{""}, PolicyNames()...)
	var cells []GridCell
	for accepted := 0; accepted < points; {
		var pairs []string
		for _, k := range ModKeys() {
			if rng.Intn(4) > 0 {
				pairs = append(pairs, fmt.Sprintf("%s=%d", k, draw[k]()))
			}
		}
		mods := strings.Join(pairs, ",")
		conf := confs[rng.Intn(len(confs))]
		policy := policies[rng.Intn(len(policies))]
		if ValidateCell(conf, policy, mods) != nil {
			continue
		}
		accepted++
		ms, err := ParseMods(mods)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range Kernels() {
			cells = append(cells, GridCell{Kernel: k, Config: conf, Policy: policy, Mods: ms, ModsKey: mods})
		}
	}
	res, _ := RunGrid(cells, SimOpts{WarmupInsts: 1_000, MeasureInsts: 3_000}, 0)
	for _, r := range res {
		if r.Err != nil {
			t.Errorf("%s on %s policy %q mods %q: %v", r.Cell.Kernel, r.Cell.Config, r.Cell.Policy, r.Cell.ModsKey, r.Err)
		}
	}
}
