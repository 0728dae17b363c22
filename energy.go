package wsrs

import (
	"fmt"
	"io"

	"wsrs/internal/cacti"
	"wsrs/internal/cluster"
	"wsrs/internal/regfile"
	"wsrs/internal/report"
	"wsrs/internal/telemetry"
)

// EnergyModelFor returns the per-event energy prices of a named
// configuration: its Table 1 register-file organization priced by the
// CACTI-style bank model, the 56-entry scheduler window wake-up cost,
// and the per-cluster bypass drive cost. Multiplied by a run's
// Activity counts this yields "Table 1 in motion" — the dynamic energy
// stack RunEnergy reports.
func EnergyModelFor(conf ConfigName) (EnergyModel, error) {
	var org regfile.Organization
	switch conf {
	case ConfRR256:
		org = regfile.NoWSDistributed(256)
	case ConfWSRR384:
		org = regfile.WS(384)
	case ConfWSRR512, ConfWSPools512:
		org = regfile.WS(512)
	case ConfWSRSRC384:
		org = regfile.WSRS(384)
	case ConfWSRSRC512, ConfWSRSRM512:
		org = regfile.WSRS(512)
	default:
		return EnergyModel{}, fmt.Errorf("wsrs: no energy model for configuration %q", conf)
	}
	cc := cluster.DefaultConfig()
	// Bypass points per cluster: two operand entries per issue slot.
	entries := 2 * cc.IssueWidth
	m := telemetry.ModelFromOrganization(cacti.Tech009(), org, cc.IQSize, entries)
	m.Name = string(conf)
	return m, nil
}

// EnergyCell is the dynamic energy stack of one (benchmark,
// configuration) pair.
type EnergyCell struct {
	Kernel string
	Config ConfigName
	Result Result
	Stack  EnergyStack
}

// RunEnergy simulates every (kernel, configuration) pair and prices
// each run's activity counts with its configuration's energy model.
// Nil confs selects the Figure 4 set; nil kernelNames selects all
// twelve benchmarks.
func RunEnergy(confs []ConfigName, kernelNames []string, opts SimOpts) ([]EnergyCell, error) {
	if confs == nil {
		confs = Figure4Configs()
	}
	if kernelNames == nil {
		kernelNames = Kernels()
	}
	// The per-configuration energy models below already reject an
	// unknown configuration; kernels need the same up-front check so
	// neither axis fails after the grid has started.
	if err := ValidateKernelNames(kernelNames); err != nil {
		return nil, err
	}
	models := map[ConfigName]EnergyModel{}
	for _, c := range confs {
		m, err := EnergyModelFor(c)
		if err != nil {
			return nil, err
		}
		models[c] = m
	}
	cells := make([]GridCell, 0, len(kernelNames)*len(confs))
	for _, k := range kernelNames {
		for _, c := range confs {
			cells = append(cells, GridCell{Kernel: k, Config: c})
		}
	}
	grid, err := RunGrid(cells, opts, opts.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("energy %w", err)
	}
	out := make([]EnergyCell, len(grid))
	for i, g := range grid {
		out[i] = EnergyCell{Kernel: g.Cell.Kernel, Config: g.Cell.Config, Result: g.Result,
			Stack: models[g.Cell.Config].Stack(&g.Result.Activity, g.Result.Insts)}
	}
	return out, nil
}

// RenderEnergy writes the dynamic energy stacks as a table: pJ per
// committed instruction per component, the total, and the event rates
// behind the paper's halving claim (monitored wake-up broadcasts and
// bypass drives per instruction). Comparing ConfRR256 against a WSRS
// configuration on the same kernel shows the wake-up and bypass
// columns at roughly half the conventional events per instruction.
func RenderEnergy(w io.Writer, cells []EnergyCell) {
	t := report.NewTable("Dynamic energy — pJ/instruction by component (model)",
		"benchmark", "config", "IPC",
		"read", "write", "wakeup", "bypass", "moves", "total",
		"wake ev/inst", "byp ev/inst")
	for _, c := range cells {
		s := c.Stack
		if s.Insts == 0 {
			t.AddRow(c.Kernel, string(c.Config), c.Result.IPC,
				"-", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		f := func(nj float64) string { return fmt.Sprintf("%.1f", s.PJPerInst(nj)) }
		rate := func(n uint64) string { return fmt.Sprintf("%.2f", float64(n)/float64(s.Insts)) }
		t.AddRow(c.Kernel, string(c.Config), c.Result.IPC,
			f(s.RegReadNJ), f(s.RegWriteNJ), f(s.WakeupNJ), f(s.BypassNJ), f(s.MoveNJ),
			fmt.Sprintf("%.1f", s.TotalPJPerInst()),
			rate(s.WakeupEvents), rate(s.BypassEvents))
	}
	t.Render(w)
}
