//go:build linux

package wsrs

import (
	"errors"
	"os/signal"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// TestCheckpointWriteErrorSurfaces fails the checkpoint's appends with
// a file-size limit, so the first record is torn mid-line: RunGrid must
// still return every result, report the write error once all cells
// have run, and leave a file a later run resumes from — the torn line
// skipped, every cell simulated again.
func TestCheckpointWriteErrorSurfaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	opts := testOpts
	opts.Checkpoint = path
	cells := []GridCell{
		{Kernel: "gzip", Config: ConfRR256},
		{Kernel: "gzip", Config: ConfWSRSRC512},
	}

	// Past the limit a write fails with EFBIG instead of raising
	// SIGXFSZ.
	signal.Ignore(syscall.SIGXFSZ)
	defer signal.Reset(syscall.SIGXFSZ)
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	limited := old
	limited.Cur = 64
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limited); err != nil {
		t.Skipf("cannot lower the file-size limit: %v", err)
	}
	out, err := RunGrid(cells, opts, 1)
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); rerr != nil {
		t.Fatal(rerr)
	}
	if !errors.Is(err, syscall.EFBIG) {
		t.Fatalf("RunGrid error = %v, want the checkpoint's EFBIG write error", err)
	}
	if len(out) != len(cells) {
		t.Fatalf("got %d results for %d cells", len(out), len(cells))
	}
	for i, r := range out {
		if r.Err != nil || r.Result.Insts == 0 {
			t.Fatalf("cell %d lost to the checkpoint failure: err=%v insts=%d", i, r.Err, r.Result.Insts)
		}
	}

	again, err := RunGrid(cells, opts, 1)
	if err != nil {
		t.Fatalf("resume over the torn checkpoint: %v", err)
	}
	for i, r := range again {
		if r.Resumed {
			t.Fatalf("cell %d resumed from a torn record", i)
		}
		if !reflect.DeepEqual(r.Result, out[i].Result) {
			t.Fatalf("cell %d: re-simulated result differs", i)
		}
	}
}
