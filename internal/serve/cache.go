package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"wsrs"
)

// CellID is the canonical identity of one simulation cell as the job
// API exposes it: everything that determines the cell's Result and
// can be named over the wire. Its Digest is the content address of
// the result cache — two requests with the same CellID are the same
// simulation, whichever job kind (grid job or exploration) asks.
type CellID struct {
	Kernel string `json:"kernel"`
	Config string `json:"config"`
	Policy string `json:"policy,omitempty"`
	// Mods is the canonical machine-modification string
	// (wsrs.ParseMods form, e.g. "clusters=2,width=2") applied on top
	// of the named configuration. Empty means the stock machine.
	Mods    string `json:"mods,omitempty"`
	Seed    int64  `json:"seed"`
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`
}

// Digest returns the cell's content address: the hex sha256 of its
// canonical identity string and wsrs.ModelVersion. The encoding is
// positional and delimiter-separated (not JSON), so field order and
// omitempty can never split one identity into two addresses. Hashing
// the model version means a record persisted by another version no
// longer matches its own address, so loading drops it and the cell
// simulates again.
func (c CellID) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s|%d|%d|%d|m%d",
		c.Kernel, c.Config, c.Policy, c.Seed, c.Warmup, c.Measure, wsrs.ModelVersion)
	if c.Mods != "" {
		fmt.Fprintf(h, "|%s", c.Mods)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cacheRecord is one persisted cell result, one JSON object per line
// (the same shape as the RunGrid checkpoint store, plus the content
// address and the identity it hashes).
type cacheRecord struct {
	Digest string      `json:"digest"`
	Cell   CellID      `json:"cell"`
	Result wsrs.Result `json:"result"`
}

// Cache is the content-addressed result store behind the daemon: an
// in-memory LRU over completed cell results, optionally persisted as
// append-only JSONL so a restarted daemon resumes warm. It
// generalizes the wsrs checkpoint store from "resume this one grid"
// to "remember every cell any job ever computed". All methods are
// safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	path string
	w    io.WriteCloser
	werr error // first append failure, surfaced on Close
}

type cacheEntry struct {
	rec cacheRecord
}

// OpenCache builds a result cache holding at most max entries
// (max <= 0 selects 4096). A non-empty path persists the cache as
// JSONL: existing records are loaded (later lines win, torn trailing
// lines from a killed daemon are tolerated) and new results are
// appended as they complete. Close compacts the file down to the live
// entries.
func OpenCache(path string, max int) (*Cache, error) {
	if max <= 0 {
		max = 4096
	}
	c := &Cache{
		max:     max,
		ll:      list.New(),
		entries: map[string]*list.Element{},
		path:    path,
	}
	if path == "" {
		return c, nil
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("serve: cache: %w", err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec cacheRecord
		if json.Unmarshal(line, &rec) != nil || rec.Digest == "" {
			continue
		}
		// A record must hash to the address it claims: a line truncated
		// by a short write (or merged with a torn neighbour) that still
		// parses as JSON, or one written by another model version, is
		// rejected here, so the cache never serves it as a valid result.
		if rec.Cell.Digest() != rec.Digest {
			continue
		}
		c.put(rec)
	}
	c.w, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: cache: %w", err)
	}
	return c, nil
}

// Degraded reports whether persistence failed and was switched off:
// the cache keeps serving from memory (pass-through for new entries)
// but appends nothing further. The first error surfaces on Close.
func (c *Cache) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.werr != nil
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Get returns the cached result for a content address, refreshing its
// LRU position.
func (c *Cache) Get(digest string) (wsrs.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[digest]
	if !ok {
		return wsrs.Result{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).rec.Result, true
}

// Put stores one completed cell result and appends it to the
// persistence file when one is open. The first write error (disk
// full, short write) degrades the cache to pass-through: the append
// stream is closed, nothing further is persisted — a partial line can
// never be extended into a plausible-looking record — and the error
// is remembered and surfaced on Close, so a sick disk cannot fail a
// healthy job mid-flight.
func (c *Cache) Put(id CellID, res wsrs.Result) {
	rec := cacheRecord{Digest: id.Digest(), Cell: id, Result: res}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(rec)
	if c.w != nil {
		line, err := json.Marshal(rec)
		if err != nil {
			return
		}
		if _, err := c.w.Write(append(line, '\n')); err != nil {
			c.werr = err
			_ = c.w.Close()
			c.w = nil
		}
	}
}

// put inserts under the lock, evicting from the LRU tail past max.
func (c *Cache) put(rec cacheRecord) {
	if el, ok := c.entries[rec.Digest]; ok {
		el.Value.(*cacheEntry).rec = rec
		c.ll.MoveToFront(el)
		return
	}
	c.entries[rec.Digest] = c.ll.PushFront(&cacheEntry{rec: rec})
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).rec.Digest)
	}
}

// Close flushes the cache: when persisting, the append-only file is
// compacted to exactly the live entries (least recently used first,
// so a reload replays into the same LRU order) via a temp-file
// rename. A degraded cache (an earlier append failed) skips the
// compaction — the disk is suspect, and the atomic-rename compaction
// must never replace the intact prefix with a partial rewrite — and
// returns that first append error.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.werr != nil {
		return c.werr
	}
	if c.w == nil {
		return nil
	}
	werr := c.werr
	if err := c.w.Close(); err != nil && werr == nil {
		werr = err
	}
	c.w = nil
	tmp := c.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return firstErr(werr, err)
	}
	enc := json.NewEncoder(f)
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		if err := enc.Encode(el.Value.(*cacheEntry).rec); err != nil {
			f.Close()
			os.Remove(tmp)
			return firstErr(werr, err)
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return firstErr(werr, err)
	}
	return firstErr(werr, os.Rename(tmp, c.path))
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
