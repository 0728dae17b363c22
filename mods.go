package wsrs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The named machine-configuration overrides ParseMods accepts, in
// canonical (alphabetical) order. Each key maps to one MachineOption:
//
//	clusters  number of execution clusters (WithClusters)
//	iq        per-cluster issue-queue size (WithIQSize)
//	regs      physical registers per class (WithRegisters)
//	rob       reorder-buffer size (WithROBSize)
//	subsets   write-specialized register subsets (WithSubsets)
//	width     per-cluster issue width (WithIssueWidth)
//
// A mods string is the wire form of these overrides: comma-separated
// key=value pairs in strictly sorted key order, e.g.
// "clusters=4,iq=56,regs=512,rob=224,subsets=4,width=2". The sorted-
// order requirement makes the encoding canonical — one set of
// overrides has exactly one spelling — so a mods string can take part
// in content addresses (the serve cache, the explore point digest)
// without ever splitting one identity into two.
var modKeys = map[string]struct {
	min, max int
	opt      func(int) MachineOption
}{
	"clusters": {1, 8, WithClusters},
	"iq":       {4, 512, WithIQSize},
	"regs":     {96, 4096, WithRegisters},
	"rob":      {8, 1024, WithROBSize},
	"subsets":  {1, 8, WithSubsets},
	"width":    {1, 8, WithIssueWidth},
}

// ModKeys returns the override keys ParseMods accepts, sorted.
func ModKeys() []string {
	out := make([]string, 0, len(modKeys))
	for k := range modKeys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ParseMods parses a canonical mods string (see modKeys) into the
// MachineOptions it names. The empty string parses to no options.
// Non-canonical input — an unknown key, an out-of-range value, a
// duplicate, or keys out of sorted order — is an error, never
// silently normalized.
func ParseMods(s string) ([]MachineOption, error) {
	if s == "" {
		return nil, nil
	}
	var out []MachineOption
	prev := ""
	for _, pair := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("wsrs: mods: malformed pair %q (want key=value)", pair)
		}
		spec, known := modKeys[k]
		if !known {
			return nil, fmt.Errorf("wsrs: mods: unknown key %q (valid: %s)",
				k, strings.Join(ModKeys(), ", "))
		}
		if k == prev {
			return nil, fmt.Errorf("wsrs: mods: duplicate key %q", k)
		}
		if k < prev {
			return nil, fmt.Errorf("wsrs: mods: keys must be in sorted order (%q after %q)", k, prev)
		}
		prev = k
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("wsrs: mods: %s=%q is not an integer", k, v)
		}
		if n < spec.min || n > spec.max {
			return nil, fmt.Errorf("wsrs: mods: %s=%d out of range [%d,%d]", k, n, spec.min, spec.max)
		}
		out = append(out, spec.opt(n))
	}
	return out, nil
}

// ValidateMods checks a mods string without building the options (""
// is always valid). The serving layer calls it during request
// validation, so a malformed override fails with a structured 400
// before any queue slot is consumed.
func ValidateMods(s string) error {
	_, err := ParseMods(s)
	return err
}

// ValidateCell dry-runs the machine build for one grid cell — base
// configuration, mods, policy — and reports whether the resulting
// machine is one the engine can actually simulate, without running a
// single cycle. It layers the cross-field rules the config structs
// cannot see on top of pipeline validation:
//
//   - with specialization on (NumSubsets > 1) dispatch equates the
//     result subset with the executing cluster, so the subset count
//     must equal the cluster count;
//   - every policy except the plain round-robin baseline steers over
//     the fixed 4-cluster subset grid;
//   - plain round-robin ignores the read-placement rule, so it cannot
//     drive a WSRS machine;
//   - in the pools organization each cluster executes only some µop
//     classes, so only the configuration's own class-routing policy
//     can steer it.
//
// The explore subsystem uses it to enumerate only simulable design
// points, and the serving layer to 400 bad cells up front.
func ValidateCell(conf ConfigName, policy, mods string) error {
	cfg, _, err := Build(conf, 1)
	if err != nil {
		return err
	}
	ms, err := ParseMods(mods)
	if err != nil {
		return err
	}
	for _, m := range ms {
		m(&cfg)
	}
	if policy != "" {
		if _, err := newPolicySized(policy, 1, cfg.NumClusters); err != nil {
			return err
		}
	}
	if s := cfg.Rename.NumSubsets; s > 1 && s != cfg.NumClusters {
		return fmt.Errorf("wsrs: %d register subsets on %d clusters (dispatch equates the result subset with the executing cluster)",
			s, cfg.NumClusters)
	}
	if cfg.NumClusters != 4 {
		switch policy {
		case "RR":
		case "":
			return fmt.Errorf("wsrs: a %d-cluster machine needs an explicit \"RR\" policy (the configurations' own policies steer over 4 clusters)", cfg.NumClusters)
		default:
			return fmt.Errorf("wsrs: policy %q is defined over the 4-cluster subset grid (machine has %d clusters)", policy, cfg.NumClusters)
		}
	}
	if cfg.ClusterConfigs != nil && policy != "" {
		return fmt.Errorf("wsrs: policy %q cannot drive the pools organization (each cluster executes only its own µop classes; omit the policy)", policy)
	}
	if cfg.WSRS && policy == "RR" {
		return fmt.Errorf("wsrs: plain round-robin cannot satisfy the WSRS read-placement rule (use RM, RC, RC-bal, RC-dep or RR-aff)")
	}
	if cfg.Rename.NumSubsets == 1 && policy != "" && policy != "RR" {
		return fmt.Errorf("wsrs: policy %q steers by register subset and needs a specialized machine (single-subset machines use RR)", policy)
	}
	return cfg.Validate()
}
