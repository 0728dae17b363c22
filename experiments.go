package wsrs

import (
	"fmt"
	"io"
	"time"

	"wsrs/internal/cacti"
	"wsrs/internal/probe"
	"wsrs/internal/regfile"
	"wsrs/internal/report"
)

// Table1Row re-exports the register-file comparison row.
type Table1Row = regfile.Row

// Table1 regenerates the paper's Table 1: register file estimates for
// noWS-M, noWS-D, WS, WSRS and noWS-2 at 0.09 µm.
func Table1() []Table1Row {
	return regfile.Table1(cacti.Tech009(), regfile.PaperConfigs())
}

// RenderTable1 writes the Table 1 reproduction as a text table.
func RenderTable1(w io.Writer) {
	t := report.NewTable("Table 1 — register file estimates (0.09um, model)",
		"config", "regs", "copies", "(R,W)", "subfiles",
		"nJ/cycle", "access ns", "pipe@10GHz", "bypass@10GHz",
		"pipe@5GHz", "bypass@5GHz", "bit area (w^2)", "rel area")
	for _, r := range Table1() {
		t.AddRow(r.Org.Name, r.Org.TotalRegs, r.Org.Copies,
			fmt.Sprintf("(%d,%d)", r.Org.ReadPorts, r.Org.WritePorts),
			r.Org.Subfiles, r.EnergyNJ, fmt.Sprintf("%.3f", r.AccessNs),
			r.Pipe10GHz, r.Bypass10GHz, r.Pipe5GHz, r.Bypass5GHz,
			r.BitArea, r.AreaRel)
	}
	t.Render(w)
}

// Figure4Cell is the IPC of one (benchmark, configuration) pair.
type Figure4Cell struct {
	Kernel string
	Config ConfigName
	Result Result
	// Wall is the cell's host wall-clock simulation time.
	Wall time.Duration
}

// RunFigure4 regenerates the paper's Figure 4: IPC of every benchmark
// on every configuration. Errors abort (they indicate a broken
// configuration, not a property of the workload).
//
// The grid fans out across opts.Parallelism workers (0 = GOMAXPROCS)
// over the shared trace cache: each kernel's functional simulation
// runs once for all configurations, and the returned cells are in the
// same deterministic (kernel, config) order as the serial harness.
func RunFigure4(confs []ConfigName, kernelNames []string, opts SimOpts) ([]Figure4Cell, error) {
	if confs == nil {
		confs = Figure4Configs()
	}
	if kernelNames == nil {
		kernelNames = Kernels()
	}
	// Validate both axes before any cell runs: a typo'd kernel or
	// configuration fails here, not mid-grid with a partial table.
	if err := ValidateKernelNames(kernelNames); err != nil {
		return nil, err
	}
	for _, c := range confs {
		if _, err := ValidateConfigName(string(c)); err != nil {
			return nil, err
		}
	}
	cells := make([]GridCell, 0, len(kernelNames)*len(confs))
	for _, k := range kernelNames {
		for _, c := range confs {
			cells = append(cells, GridCell{Kernel: k, Config: c})
		}
	}
	grid, err := RunGrid(cells, opts, opts.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("figure4 %w", err)
	}
	out := make([]Figure4Cell, len(grid))
	for i, g := range grid {
		out[i] = Figure4Cell{Kernel: g.Cell.Kernel, Config: g.Cell.Config, Result: g.Result, Wall: g.Wall}
	}
	return out, nil
}

// RenderFigure4 writes Figure 4 as a table: one row per benchmark,
// one IPC column per configuration.
func RenderFigure4(w io.Writer, cells []Figure4Cell) {
	confs := Figure4Configs()
	header := []string{"benchmark"}
	for _, c := range confs {
		header = append(header, string(c))
	}
	t := report.NewTable("Figure 4 — IPC", header...)
	byKernel := map[string]map[ConfigName]float64{}
	var order []string
	for _, c := range cells {
		if byKernel[c.Kernel] == nil {
			byKernel[c.Kernel] = map[ConfigName]float64{}
			order = append(order, c.Kernel)
		}
		byKernel[c.Kernel][c.Config] = c.Result.IPC
	}
	for _, k := range order {
		row := []any{k}
		for _, c := range confs {
			if v, ok := byKernel[k][c]; ok {
				row = append(row, v)
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	t.Render(w)
}

// RenderFigure4Stats writes the observability companion of Figure 4:
// one row per (benchmark, configuration) cell with its IPC, host
// wall-clock simulation time, and the commit-slot stall stack grouped
// into broad categories (% of all commit slots). Cells must come from
// a run with SimOpts.Stats set; cells without a stall stack render
// dashes.
func RenderFigure4Stats(w io.Writer, cells []Figure4Cell) {
	t := report.NewTable("Figure 4 — wall time and commit-slot breakdown (% of slots)",
		"benchmark", "config", "IPC", "wall ms",
		"commit", "mispred", "memory", "exec", "issue", "rename", "front", "pJ/inst")
	for _, c := range cells {
		// Configurations without an energy model render a dash.
		energy := "-"
		if m, err := EnergyModelFor(c.Config); err == nil && c.Result.Insts > 0 {
			energy = fmt.Sprintf("%.1f", m.Stack(&c.Result.Activity, c.Result.Insts).TotalPJPerInst())
		}
		s := c.Result.Stalls
		wall := fmt.Sprintf("%.1f", float64(c.Wall.Microseconds())/1000)
		if s == nil || s.TotalSlots() == 0 {
			t.AddRow(c.Kernel, string(c.Config), c.Result.IPC, wall,
				"-", "-", "-", "-", "-", "-", "-", energy)
			continue
		}
		pct := func(f float64) string { return fmt.Sprintf("%.1f", 100*f) }
		t.AddRow(c.Kernel, string(c.Config), c.Result.IPC, wall,
			pct(float64(s.Committed)/float64(s.TotalSlots())),
			pct(s.Share(probe.CauseMispredict, probe.CauseTrap)),
			pct(s.Share(probe.CauseCacheMiss, probe.CauseMemOrder)),
			pct(s.Share(probe.CauseExecDep, probe.CauseExecLat, probe.CauseXClusterForward)),
			pct(s.Share(probe.CauseIssueWait)),
			pct(s.Share(probe.CauseFreeList)),
			pct(s.Share(probe.CauseFrontend, probe.CauseDrain)), energy)
	}
	t.Render(w)
}

// Figure5Cell is the unbalancing degree of one (benchmark, policy)
// pair, in percent.
type Figure5Cell struct {
	Kernel string
	Config ConfigName
	Degree float64
}

// RunFigure5 regenerates the paper's Figure 5: the §5.4.2 unbalancing
// degree for the WSRS RC and RM policies on every benchmark
// (round-robin is perfectly balanced by construction and not
// plotted, as in the paper).
func RunFigure5(kernelNames []string, opts SimOpts) ([]Figure5Cell, error) {
	if kernelNames == nil {
		kernelNames = Kernels()
	}
	if err := ValidateKernelNames(kernelNames); err != nil {
		return nil, err
	}
	confs := []ConfigName{ConfWSRSRC512, ConfWSRSRM512}
	cells := make([]GridCell, 0, len(kernelNames)*len(confs))
	for _, k := range kernelNames {
		for _, c := range confs {
			cells = append(cells, GridCell{Kernel: k, Config: c})
		}
	}
	grid, err := RunGrid(cells, opts, opts.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("figure5 %w", err)
	}
	out := make([]Figure5Cell, len(grid))
	for i, g := range grid {
		out[i] = Figure5Cell{Kernel: g.Cell.Kernel, Config: g.Cell.Config, Degree: g.Result.UnbalancingDegree}
	}
	return out, nil
}

// RenderFigure5 writes Figure 5 as a table.
func RenderFigure5(w io.Writer, cells []Figure5Cell) {
	t := report.NewTable("Figure 5 — unbalancing degree (%)",
		"benchmark", "WSRS RC", "WSRS RM")
	type row struct{ rc, rm float64 }
	byKernel := map[string]*row{}
	var order []string
	for _, c := range cells {
		r := byKernel[c.Kernel]
		if r == nil {
			r = &row{}
			byKernel[c.Kernel] = r
			order = append(order, c.Kernel)
		}
		if c.Config == ConfWSRSRM512 {
			r.rm = c.Degree
		} else {
			r.rc = c.Degree
		}
	}
	for _, k := range order {
		t.AddRow(k, fmt.Sprintf("%.1f", byKernel[k].rc), fmt.Sprintf("%.1f", byKernel[k].rm))
	}
	t.Render(w)
}
