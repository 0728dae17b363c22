package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"wsrs"
	"wsrs/internal/mem"
)

// referenceJSON holds the engine workloads' results at seed 1,
// recorded before any change to the engine (regenerate with
// `go test -run TestReference -update` only when a change is meant to
// alter simulated behaviour).
//
//go:embed testdata/reference.json
var referenceJSON []byte

// refKey identifies one recorded cell.
type refKey struct {
	Kernel  string `json:"kernel"`
	Config  string `json:"config"`
	Seed    int64  `json:"seed"`
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`
}

// refCell is one recorded result: the counts a simulator-only change
// must leave unchanged.
type refCell struct {
	refKey
	Cycles int64     `json:"cycles"`
	Insts  uint64    `json:"insts"`
	Uops   uint64    `json:"uops"`
	Mem    mem.Stats `json:"mem"`
}

func newRefCell(k refKey, r wsrs.Result) refCell {
	return refCell{refKey: k, Cycles: r.Cycles, Insts: r.Insts, Uops: r.Uops, Mem: r.Mem}
}

func loadReference() (map[refKey]refCell, error) {
	var cells []refCell
	if err := json.Unmarshal(referenceJSON, &cells); err != nil {
		return nil, fmt.Errorf("reference results: %w", err)
	}
	out := make(map[refKey]refCell, len(cells))
	for _, c := range cells {
		out[c.refKey] = c
	}
	return out, nil
}
