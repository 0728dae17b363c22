package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"wsrs"
)

func testID(seed int64) CellID {
	return CellID{Kernel: "gzip", Config: "RR 256", Seed: seed, Warmup: 1000, Measure: 5000}
}

func TestCellIDDigest(t *testing.T) {
	a, b := testID(1), testID(1)
	if a.Digest() != b.Digest() {
		t.Fatal("identical cells digest differently")
	}
	distinct := []CellID{
		testID(2),
		{Kernel: "mcf", Config: "RR 256", Seed: 1, Warmup: 1000, Measure: 5000},
		{Kernel: "gzip", Config: "WSRR 384", Seed: 1, Warmup: 1000, Measure: 5000},
		{Kernel: "gzip", Config: "RR 256", Policy: "RM", Seed: 1, Warmup: 1000, Measure: 5000},
		{Kernel: "gzip", Config: "RR 256", Seed: 1, Warmup: 2000, Measure: 5000},
		{Kernel: "gzip", Config: "RR 256", Seed: 1, Warmup: 1000, Measure: 6000},
		{Kernel: "gzip", Config: "RR 256", Mods: "clusters=2", Seed: 1, Warmup: 1000, Measure: 5000},
	}
	seen := map[string]bool{a.Digest(): true}
	for i, id := range distinct {
		d := id.Digest()
		if seen[d] {
			t.Fatalf("cell %d collides with an earlier digest", i)
		}
		seen[d] = true
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := OpenCache("", 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(1); s <= 4; s++ {
		c.Put(testID(s), wsrs.Result{Cycles: s})
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if _, ok := c.Get(testID(1).Digest()); ok {
		t.Fatal("oldest entry survived past the LRU cap")
	}
	// Touch 2, insert 5: 3 becomes the victim.
	if _, ok := c.Get(testID(2).Digest()); !ok {
		t.Fatal("entry 2 missing")
	}
	c.Put(testID(5), wsrs.Result{Cycles: 5})
	if _, ok := c.Get(testID(3).Digest()); ok {
		t.Fatal("LRU victim was not the least recently used entry")
	}
	if _, ok := c.Get(testID(2).Digest()); !ok {
		t.Fatal("recently touched entry was evicted")
	}
}

func TestCachePersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := OpenCache(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(1); s <= 3; s++ {
		c.Put(testID(s), wsrs.Result{Cycles: 100 * s, IPC: float64(s)})
	}
	// Overwrite entry 2 — the reload must keep the newer record.
	c.Put(testID(2), wsrs.Result{Cycles: 999})
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := OpenCache(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 3 {
		t.Fatalf("reloaded Len = %d, want 3", re.Len())
	}
	res, ok := re.Get(testID(2).Digest())
	if !ok || res.Cycles != 999 {
		t.Fatalf("reloaded entry 2 = %+v (ok=%v), want the overwrite", res, ok)
	}
}

func TestCacheToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := OpenCache(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(testID(1), wsrs.Result{Cycles: 1})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a daemon killed mid-append.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"digest":"abc","cell":{"ker`)
	f.Close()

	re, err := OpenCache(path, 0)
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("Len over torn file = %d, want 1", re.Len())
	}
}

// failingWriter fails every write after the first okBytes bytes —
// disk-full and short-write in one: the first failing write may land
// a partial line.
type failingWriter struct {
	f       *os.File
	okBytes int
	written int
	closed  bool
}

func (w *failingWriter) Write(p []byte) (int, error) {
	room := w.okBytes - w.written
	if room >= len(p) {
		w.written += len(p)
		return w.f.Write(p)
	}
	if room > 0 {
		w.written += room
		w.f.Write(p[:room]) // the short write: a torn partial line
	}
	return room, fmt.Errorf("disk full")
}

func (w *failingWriter) Close() error { w.closed = true; return w.f.Close() }

// TestCacheWriteErrorDegradesToPassThrough is the disk-full
// contract: the first append failure switches persistence off, the
// cache keeps serving (and accepting) entries from memory, Close
// surfaces the error without compacting over the intact prefix, and a
// reload serves only complete, digest-verified records — never the
// torn one.
func TestCacheWriteErrorDegradesToPassThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := OpenCache(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Measure one full record so the failure lands mid-line of the
	// second: one intact line plus a torn partial.
	rec, _ := json.Marshal(cacheRecord{Digest: testID(1).Digest(), Cell: testID(1), Result: wsrs.Result{Cycles: 1}})
	f := c.w.(*os.File)
	fw := &failingWriter{f: f, okBytes: len(rec) + 1 + 10}
	c.w = fw

	c.Put(testID(1), wsrs.Result{Cycles: 1}) // persists fully
	if c.Degraded() {
		t.Fatal("cache degraded before any write failed")
	}
	c.Put(testID(2), wsrs.Result{Cycles: 2}) // torn: 10 bytes then failure
	if !c.Degraded() {
		t.Fatal("write failure did not degrade the cache")
	}
	if !fw.closed {
		t.Fatal("degrading did not close the append stream")
	}

	// Pass-through: the cache still serves and accepts from memory.
	for s := int64(1); s <= 3; s++ {
		c.Put(testID(s), wsrs.Result{Cycles: s})
		if res, ok := c.Get(testID(s).Digest()); !ok || res.Cycles != s {
			t.Fatalf("degraded cache lost entry %d (ok=%v res=%+v)", s, ok, res)
		}
	}

	if err := c.Close(); err == nil {
		t.Fatal("Close swallowed the append error")
	}

	// The reload serves the intact record and nothing torn.
	re, err := OpenCache(path, 0)
	if err != nil {
		t.Fatalf("reopen after degrade: %v", err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("reloaded %d entries, want exactly the 1 intact record", re.Len())
	}
	if res, ok := re.Get(testID(1).Digest()); !ok || res.Cycles != 1 {
		t.Fatalf("intact record lost: ok=%v res=%+v", ok, res)
	}
	if _, ok := re.Get(testID(2).Digest()); ok {
		t.Fatal("a truncated entry was served")
	}
}

// TestCacheLoadRejectsForgedDigest: a record whose content does not
// hash to the address it claims (bit rot, a torn line merged with its
// neighbour) must be dropped on load, not served.
func TestCacheLoadRejectsForgedDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	good, _ := json.Marshal(cacheRecord{Digest: testID(1).Digest(), Cell: testID(1), Result: wsrs.Result{Cycles: 1}})
	forged, _ := json.Marshal(cacheRecord{Digest: testID(2).Digest(), Cell: testID(3), Result: wsrs.Result{Cycles: 666}})
	if err := os.WriteFile(path, []byte(string(good)+"\n"+string(forged)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Len() != 1 {
		t.Fatalf("loaded %d entries, want 1 (forged digest rejected)", c.Len())
	}
	if _, ok := c.Get(testID(2).Digest()); ok {
		t.Fatal("forged record served under its claimed digest")
	}
}

func TestCacheCompactionBoundsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, err := OpenCache(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	for s := int64(1); s <= 10; s++ {
		c.Put(testID(s), wsrs.Result{Cycles: s})
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenCache(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 2 {
		t.Fatalf("compacted cache reloads %d entries, want 2", re.Len())
	}
	for _, s := range []int64{9, 10} {
		if _, ok := re.Get(testID(s).Digest()); !ok {
			t.Fatalf("compaction dropped live entry seed=%d", s)
		}
	}
}

// TestCacheSkipsOtherModelVersion persists a record in the format of
// the model before wsrs.ModelVersion existed — a digest without the
// version, a result without activity counts — and checks the daemon
// neither loads nor serves it: the same cell simulates again.
func TestCacheSkipsOtherModelVersion(t *testing.T) {
	id := testID(1)
	legacy := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%s|%d|%d|%d|%t",
		id.Kernel, id.Config, id.Policy, id.Seed, id.Warmup, id.Measure, false)))
	line := fmt.Sprintf(`{"digest":%q,"cell":{"kernel":%q,"config":%q,"seed":%d,"warmup":%d,"measure":%d},"result":{"Name":"stale","Cycles":1}}`+"\n",
		hex.EncodeToString(legacy[:]), id.Kernel, id.Config, id.Seed, id.Warmup, id.Measure)
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("loaded %d records of another model version", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The daemon reopens the compacted file; the cell must miss.
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, client, _ := testServer(t, Options{Workers: 1, CachePath: path})
	defer srv.Drain(context.Background())
	final := submitWait(t, client, &JobRequest{
		Cells:  []CellSpec{{Kernel: id.Kernel, Config: id.Config}},
		Warmup: id.Warmup, Measure: id.Measure, Seed: id.Seed,
	})
	if final.State != StateDone {
		t.Fatalf("job: %s (%s)", final.State, final.Error)
	}
	if got := final.Cells[0].Cache; got != CacheMiss {
		t.Fatalf("cell disposition %q, want %q", got, CacheMiss)
	}
	waitCounter(t, client, mSims, 1)
}
