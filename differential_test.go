package wsrs

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// The differential suite locks the allocation-free core down from the
// outside: every optional observation layer (probe, stats, self-check)
// must be invisible to the timing model and to the always-on activity
// counts, engine re-use
// through the sync.Pool must be invisible to repeated runs, and the
// headline statistics of the whole kernel × configuration grid are
// pinned byte-for-byte in testdata/differential.golden. A change that
// perturbs any cycle count anywhere in the machine shows up as a
// golden diff; a change that makes any observer non-neutral shows up
// as a mode mismatch.

// diffOpts keeps the sweep fast; like goldenOpts, everything feeding
// the comparisons is deterministic at a fixed seed.
var diffOpts = SimOpts{WarmupInsts: 1000, MeasureInsts: 4000, Seed: 1}

// stripObservers drops the stall stack (present only in the modes
// that request it) so Results, activity counts included, can be
// compared structurally.
func stripObservers(r Result) Result {
	r.Stalls = nil
	return r
}

// diffModes are the observation variants every swept cell must agree
// across. "plain2" re-runs plain so each cell also exercises engine
// re-use from the pool against its own first run.
var diffModes = []struct {
	name string
	mod  func(*SimOpts)
}{
	{"plain", func(*SimOpts) {}},
	{"plain2", func(*SimOpts) {}},
	{"stats", func(o *SimOpts) { o.Stats = true }},
	{"probe", func(o *SimOpts) { o.Probe = NewProbe(ProbeOptions{Events: true, Stalls: true, Occupancy: true}) }},
	{"check", func(o *SimOpts) { o.Check = true }},
	{"all", func(o *SimOpts) { o.Stats, o.Check = true, true }},
}

// TestDifferentialGrid sweeps every kernel × configuration cell,
// asserts mode-invariance, and pins the plain results in a golden
// file.
func TestDifferentialGrid(t *testing.T) {
	var buf bytes.Buffer
	for _, kernel := range Kernels() {
		for _, conf := range AllConfigs() {
			base, err := RunKernel(conf, kernel, diffOpts)
			if err != nil {
				t.Fatalf("%s/%s: %v", kernel, conf, err)
			}
			// The full mode sweep is run on a three-kernel cross
			// section (integer, pointer-chasing, floating-point);
			// the remaining cells check the strongest two modes.
			modes := diffModes
			switch kernel {
			case "gzip", "mcf", "wupwise":
			default:
				modes = modes[:0:0]
				modes = append(modes, diffModes[1], diffModes[4], diffModes[5])
			}
			for _, m := range modes {
				opts := diffOpts
				m.mod(&opts)
				got, err := RunKernel(conf, kernel, opts)
				if err != nil {
					t.Fatalf("%s/%s [%s]: %v", kernel, conf, m.name, err)
				}
				if opts.Stats && got.Stalls == nil {
					t.Errorf("%s/%s [%s]: stats mode returned no stall stack", kernel, conf, m.name)
				}
				if got.Activity.RegWriteTotal() == 0 {
					t.Errorf("%s/%s [%s]: result carries no activity counts", kernel, conf, m.name)
				}
				if !reflect.DeepEqual(stripObservers(got), stripObservers(base)) {
					t.Errorf("%s/%s [%s]: result differs from plain run\n got: %+v\nwant: %+v",
						kernel, conf, m.name, stripObservers(got), stripObservers(base))
				}
			}
			fmt.Fprintf(&buf, "%-10s | %-13s | cycles %7d | uops %6d | insts %6d | mispred %5d | stalls %6d/%6d/%6d\n",
				kernel, conf, base.Cycles, base.Uops, base.Insts, base.Mispredicts,
				base.StallRedirect, base.StallRename, base.StallWindow)
		}
	}
	checkGolden(t, "differential.golden", buf.Bytes())
}

// TestDifferentialPolicySeeds crosses every allocation policy with
// several seeds on the 512-register WSRS machine and asserts the
// checked and stats-probed runs are identical to the plain ones.
// Seeded policies draw from their own RNG only, so cycle identity
// must hold at every seed.
func TestDifferentialPolicySeeds(t *testing.T) {
	for _, policy := range PolicyNames() {
		// Round-robin ignores operand subsets, so it is only legal on
		// the non-read-specialized machine; the WSRS-aware policies
		// sweep the WSRS machine.
		conf := ConfWSRSRC512
		if policy == "RR" {
			conf = ConfWSRR512
		}
		for _, seed := range []int64{1, 7, 42} {
			cell := GridCell{Kernel: "gzip", Config: conf, Policy: policy, Seed: seed}
			opts := diffOpts
			base, err := RunGrid([]GridCell{cell}, opts, 1)
			if err != nil {
				t.Fatalf("%s seed %d: %v", policy, seed, err)
			}
			for _, m := range []struct {
				name string
				mod  func(*SimOpts)
			}{
				{"check", func(o *SimOpts) { o.Check = true }},
				{"stats", func(o *SimOpts) { o.Stats = true }},
			} {
				mo := diffOpts
				m.mod(&mo)
				got, err := RunGrid([]GridCell{cell}, mo, 1)
				if err != nil {
					t.Fatalf("%s seed %d [%s]: %v", policy, seed, m.name, err)
				}
				if !reflect.DeepEqual(stripObservers(got[0].Result), stripObservers(base[0].Result)) {
					t.Errorf("%s seed %d [%s]: result differs from plain run", policy, seed, m.name)
				}
			}
		}
	}
}

// TestDifferentialGridParallel runs one batch of cells serially and
// through the parallel worker pool and asserts identical results:
// engine recycling across worker goroutines must not leak state
// between cells.
func TestDifferentialGridParallel(t *testing.T) {
	var cells []GridCell
	for _, kernel := range []string{"gzip", "mcf", "wupwise"} {
		for _, conf := range AllConfigs() {
			cells = append(cells, GridCell{Kernel: kernel, Config: conf})
		}
	}
	serial, err := RunGrid(cells, diffOpts, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunGrid(cells, diffOpts, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Errorf("%s/%s: parallel grid result differs from serial",
				cells[i].Kernel, cells[i].Config)
		}
	}
}
