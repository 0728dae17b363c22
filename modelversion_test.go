package wsrs

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldensByModel records the hash of testdata/*.golden (see
// goldensHash) that each ModelVersion produces. A change that moves any
// golden must bump ModelVersion and add its hash here, so results
// persisted by the old model are never resumed or served as new ones.
var goldensByModel = map[int]string{
	1: "cba2c8f0c3fb2f593975cefa82c21e36c71d3627f1529958115c65c0994df28c",
}

// goldensHash is the sha256 over every testdata/*.golden file, each
// prefixed with its name and length, in name order.
func goldensHash(t *testing.T) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden files: %v", err)
	}
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestModelVersionPinsGoldens fails when a golden file changes without
// a ModelVersion bump.
func TestModelVersionPinsGoldens(t *testing.T) {
	got := goldensHash(t)
	if want, ok := goldensByModel[ModelVersion]; !ok || got != want {
		t.Fatalf("testdata/*.golden hash %s is not the one recorded for ModelVersion %d (%q): "+
			"simulated results changed, so bump ModelVersion and record the new hash", got, ModelVersion, want)
	}
}

// TestCheckpointSkipsOtherModelVersion writes a checkpoint line in the
// unversioned key format of the model before ModelVersion existed —
// a result without activity counts — and checks RunGrid simulates the
// cell again instead of resuming it.
func TestCheckpointSkipsOtherModelVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	legacy := `{"key":"0|gzip|RR 256||0|1000|4000|1","result":{"Name":"stale","Cycles":1,"Insts":1}}` + "\n"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	cells := []GridCell{{Kernel: "gzip", Config: ConfRR256}}
	fresh, err := RunGrid(cells, diffOpts, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := diffOpts
	opts.Checkpoint = path
	got, err := RunGrid(cells, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Resumed {
		t.Fatal("a checkpoint record of another model version was resumed")
	}
	if !reflect.DeepEqual(got[0].Result, fresh[0].Result) {
		t.Fatalf("re-simulated cell differs from a fresh run:\n got %+v\nwant %+v", got[0].Result, fresh[0].Result)
	}
}
