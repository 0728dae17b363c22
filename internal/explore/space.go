// Package explore is the design-space exploration subsystem: a typed
// parameter space over the simulator's degrees of freedom (cluster
// count, issue width, physical registers, IQ/ROB sizes, register
// specialization mode, allocation policy, kernel set), deterministic
// search strategies over it (exhaustive grid, seeded random sampling,
// successive halving), an exact pre-filter that skips every point
// whose surplus registers make it simulate cycle-identically to a
// smaller one, and a Pareto engine trading IPC against dynamic energy
// (pJ/inst) and a cacti-style area proxy.
//
// Every point has a canonical encoding and a sha256 digest, and every
// evaluated point maps onto an ordinary grid cell (base configuration
// + canonical mods string + explicit policy), so evaluations reuse the
// serve/fleet result cache and the checkpoint format unchanged.
package explore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	wsrs "wsrs"
)

// Specialization modes of a design point: the paper's three register
// file organizations.
const (
	SpecNone  = "none"  // conventional distributed register file
	SpecWrite = "write" // register write specialization (WS)
	SpecWSRS  = "wsrs"  // write + read specialization (WSRS)
)

// Specializations lists the valid specialization modes.
func Specializations() []string { return []string{SpecNone, SpecWrite, SpecWSRS} }

// Point is one fully-bound design point of the space.
type Point struct {
	Clusters   int    `json:"clusters"`
	Width      int    `json:"width"` // per-cluster issue width
	Regs       int    `json:"regs"`  // physical registers per class
	IQ         int    `json:"iq"`    // per-cluster scheduler entries
	ROB        int    `json:"rob"`
	Specialize string `json:"specialize"` // none | write | wsrs
	Policy     string `json:"policy"`
}

// Subsets returns the register-subset count the specialization mode
// implies: one subset without specialization, one per cluster with it
// (dispatch equates the result subset with the executing cluster).
func (p Point) Subsets() int {
	if p.Specialize == SpecNone {
		return 1
	}
	return p.Clusters
}

// Encode returns the canonical string form of the point: fixed key
// order, every field present. Two equal points encode identically and
// two different points differently, so the encoding can be hashed.
func (p Point) Encode() string {
	return fmt.Sprintf("clusters=%d|iq=%d|policy=%s|regs=%d|rob=%d|spec=%s|width=%d",
		p.Clusters, p.IQ, p.Policy, p.Regs, p.ROB, p.Specialize, p.Width)
}

// Digest returns the hex sha256 of the canonical encoding — the
// point's identity in frontier documents and provenance maps.
func (p Point) Digest() string {
	sum := sha256.Sum256([]byte(p.Encode()))
	return hex.EncodeToString(sum[:])
}

// Config returns the base configuration the point builds on; the mods
// string then pins every explored parameter explicitly, so only the
// non-explored properties (front-end shape, predictor, penalties)
// come from the base.
func (p Point) Config() wsrs.ConfigName {
	switch p.Specialize {
	case SpecWrite:
		return wsrs.ConfWSRR512
	case SpecWSRS:
		return wsrs.ConfWSRSRC512
	default:
		return wsrs.ConfRR256
	}
}

// Mods returns the canonical mods string (see wsrs.ParseMods) binding
// all six machine parameters of the point.
func (p Point) Mods() string {
	return fmt.Sprintf("clusters=%d,iq=%d,regs=%d,rob=%d,subsets=%d,width=%d",
		p.Clusters, p.IQ, p.Regs, p.ROB, p.Subsets(), p.Width)
}

// Valid dry-runs the machine build for the point against the real
// engine's validation (wsrs.ValidateCell), so Enumerate never has to
// duplicate — and risk disagreeing with — the pipeline's rules.
func (p Point) Valid() error {
	return wsrs.ValidateCell(p.Config(), p.Policy, p.Mods())
}

// Space is the typed parameter space of one exploration: the cross
// product of its axes, minus the combinations the engine cannot
// simulate (Enumerate skips those and accounts for them).
type Space struct {
	Clusters   []int    `json:"clusters"`
	Widths     []int    `json:"widths"`
	Regs       []int    `json:"regs"`
	IQSizes    []int    `json:"iq_sizes"`
	ROBSizes   []int    `json:"rob_sizes"`
	Specialize []string `json:"specialize"`
	Policies   []string `json:"policies"`
	Kernels    []string `json:"kernels"`
}

// FieldError is one structured validation failure: the offending
// field, a message, and (when the field draws from a closed set) the
// valid values. The serving layer maps these 1:1 onto its ErrorEnvelope
// details, the same contract as wsrs.ValidateKernelNames.
type FieldError struct {
	Field string   `json:"field"`
	Msg   string   `json:"msg"`
	Valid []string `json:"valid,omitempty"`
}

func (e FieldError) Error() string { return e.Field + ": " + e.Msg }

func intsValid(field string, vals []int, min, max int, errs *[]FieldError) {
	if len(vals) == 0 {
		*errs = append(*errs, FieldError{Field: field, Msg: "axis is empty"})
		return
	}
	seen := map[int]bool{}
	for _, v := range vals {
		if v < min || v > max {
			*errs = append(*errs, FieldError{Field: field,
				Msg: fmt.Sprintf("%d out of range [%d,%d]", v, min, max)})
		}
		if seen[v] {
			*errs = append(*errs, FieldError{Field: field,
				Msg: fmt.Sprintf("duplicate value %d", v)})
		}
		seen[v] = true
	}
}

func setValid(field string, vals, valid []string, errs *[]FieldError) {
	if len(vals) == 0 {
		*errs = append(*errs, FieldError{Field: field, Msg: "axis is empty", Valid: valid})
		return
	}
	ok := map[string]bool{}
	for _, v := range valid {
		ok[v] = true
	}
	seen := map[string]bool{}
	for _, v := range vals {
		if !ok[v] {
			*errs = append(*errs, FieldError{Field: field,
				Msg: fmt.Sprintf("unknown value %q", v), Valid: valid})
		}
		if seen[v] {
			*errs = append(*errs, FieldError{Field: field,
				Msg: fmt.Sprintf("duplicate value %q", v), Valid: valid})
		}
		seen[v] = true
	}
}

// Validate reports every per-field problem of the space (empty axes,
// out-of-range or duplicate values, unknown names). A space that
// validates may still enumerate to zero points if every combination is
// jointly invalid; Enumerate reports that separately.
func (s *Space) Validate() []FieldError {
	var errs []FieldError
	intsValid("space.clusters", s.Clusters, 1, 8, &errs)
	intsValid("space.widths", s.Widths, 1, 8, &errs)
	intsValid("space.regs", s.Regs, 96, 4096, &errs)
	intsValid("space.iq_sizes", s.IQSizes, 4, 512, &errs)
	intsValid("space.rob_sizes", s.ROBSizes, 8, 1024, &errs)
	setValid("space.specialize", s.Specialize, Specializations(), &errs)
	setValid("space.policies", s.Policies, wsrs.PolicyNames(), &errs)
	if len(s.Kernels) == 0 {
		errs = append(errs, FieldError{Field: "space.kernels", Msg: "axis is empty", Valid: wsrs.Kernels()})
	} else if err := wsrs.ValidateKernelNames(s.Kernels); err != nil {
		errs = append(errs, FieldError{Field: "space.kernels", Msg: err.Error(), Valid: wsrs.Kernels()})
	} else {
		seen := map[string]bool{}
		for _, k := range s.Kernels {
			if seen[k] {
				errs = append(errs, FieldError{Field: "space.kernels",
					Msg: fmt.Sprintf("duplicate kernel %q", k)})
			}
			seen[k] = true
		}
	}
	return errs
}

// Canon returns a copy of the space with every axis sorted into
// canonical order, so two spellings of the same space share one
// encoding, digest and enumeration order.
func (s *Space) Canon() Space {
	c := Space{
		Clusters:   append([]int(nil), s.Clusters...),
		Widths:     append([]int(nil), s.Widths...),
		Regs:       append([]int(nil), s.Regs...),
		IQSizes:    append([]int(nil), s.IQSizes...),
		ROBSizes:   append([]int(nil), s.ROBSizes...),
		Specialize: append([]string(nil), s.Specialize...),
		Policies:   append([]string(nil), s.Policies...),
		Kernels:    append([]string(nil), s.Kernels...),
	}
	sort.Ints(c.Clusters)
	sort.Ints(c.Widths)
	sort.Ints(c.Regs)
	sort.Ints(c.IQSizes)
	sort.Ints(c.ROBSizes)
	sort.Strings(c.Specialize)
	sort.Strings(c.Policies)
	sort.Strings(c.Kernels)
	return c
}

// Encode returns the canonical string form of the space.
func (s *Space) Encode() string {
	c := s.Canon()
	var b strings.Builder
	ints := func(k string, v []int) {
		fmt.Fprintf(&b, "%s=%v;", k, v)
	}
	strs := func(k string, v []string) {
		fmt.Fprintf(&b, "%s=[%s];", k, strings.Join(v, " "))
	}
	ints("clusters", c.Clusters)
	ints("iq", c.IQSizes)
	strs("kernels", c.Kernels)
	strs("policies", c.Policies)
	ints("regs", c.Regs)
	ints("rob", c.ROBSizes)
	strs("spec", c.Specialize)
	ints("widths", c.Widths)
	return b.String()
}

// Digest returns the hex sha256 of the canonical space encoding.
func (s *Space) Digest() string {
	sum := sha256.Sum256([]byte(s.Encode()))
	return hex.EncodeToString(sum[:])
}

// Size returns the raw cross-product size of the space, before joint
// validity filtering (kernels are shared by every point, not an axis
// of the cross product).
func (s *Space) Size() int {
	return len(s.Clusters) * len(s.Widths) * len(s.Regs) *
		len(s.IQSizes) * len(s.ROBSizes) * len(s.Specialize) * len(s.Policies)
}

// Enumerate walks the canonical cross product in fixed axis order and
// returns every simulable point plus the count of combinations skipped
// as jointly invalid (e.g. WSRS off the 4-cluster grid, registers not
// divisible into subsets). The order is deterministic: axes sorted,
// loops nested clusters→width→regs→iq→rob→specialize→policy.
func (s *Space) Enumerate() (points []Point, skipped int) {
	c := s.Canon()
	for _, cl := range c.Clusters {
		for _, w := range c.Widths {
			for _, r := range c.Regs {
				for _, iq := range c.IQSizes {
					for _, rob := range c.ROBSizes {
						for _, sp := range c.Specialize {
							for _, pol := range c.Policies {
								p := Point{Clusters: cl, Width: w, Regs: r,
									IQ: iq, ROB: rob, Specialize: sp, Policy: pol}
								if p.Valid() != nil {
									skipped++
									continue
								}
								points = append(points, p)
							}
						}
					}
				}
			}
		}
	}
	return points, skipped
}
