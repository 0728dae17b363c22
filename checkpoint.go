package wsrs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// cellKey identifies one grid cell for checkpoint resume. It covers
// everything that determines the cell's result and can be named: the
// model version, the cell's position and identity, the effective seed
// and the run windows. MachineOption modifiers are opaque functions,
// so only their count participates — callers changing a Mod in place
// should start a fresh checkpoint file.
func cellKey(index int, c GridCell, opts SimOpts) string {
	o := opts.withDefaults()
	seed := o.Seed
	if c.Seed != 0 {
		seed = c.Seed
	}
	key := fmt.Sprintf("m%d|%d|%s|%s|%s|%d|%d|%d|%d",
		ModelVersion, index, c.Kernel, c.Config, c.Policy, len(c.Mods),
		o.WarmupInsts, o.MeasureInsts, seed)
	if c.ModsKey != "" {
		key += "|" + c.ModsKey
	}
	return key
}

// checkpointRecord is one finished cell, one JSON object per line.
type checkpointRecord struct {
	Key    string `json:"key"`
	Result Result `json:"result"`
}

// checkpoint is the resume store behind SimOpts.Checkpoint: finished
// cells are appended as JSONL as they complete, and a later run over
// the same file restores them instead of re-simulating. Only
// successful cells are recorded — failures always re-run.
type checkpoint struct {
	mu   sync.Mutex
	done map[string]Result
	f    *os.File // nil once an append failed
	err  error    // first append failure, returned by close
}

// openCheckpoint loads an existing checkpoint file (tolerating a torn
// trailing line from an interrupted run) and opens it for appending.
func openCheckpoint(path string) (*checkpoint, error) {
	ck := &checkpoint{done: map[string]Result{}}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("wsrs: checkpoint: %w", err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec checkpointRecord
		if json.Unmarshal(line, &rec) != nil || rec.Key == "" {
			continue
		}
		ck.done[rec.Key] = rec.Result
	}
	ck.f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wsrs: checkpoint: %w", err)
	}
	return ck, nil
}

// lookup restores a previously recorded cell result.
func (c *checkpoint) lookup(key string) (Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.done[key]
	return res, ok
}

// record appends one finished cell. The first write error (disk
// full, short write) closes the append stream — a torn line is never
// extended into a plausible-looking record — and is returned by close,
// so a sick disk does not fail an otherwise healthy grid mid-flight.
func (c *checkpoint) record(key string, res Result) {
	line, err := json.Marshal(checkpointRecord{Key: key, Result: res})
	if err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done[key] = res
	if c.f == nil {
		return
	}
	if _, err := c.f.Write(append(line, '\n')); err != nil {
		c.err = err
		_ = c.f.Close()
		c.f = nil
	}
}

// close closes the append stream and returns the first write error.
func (c *checkpoint) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f != nil {
		c.err = c.f.Close()
		c.f = nil
	}
	return c.err
}
