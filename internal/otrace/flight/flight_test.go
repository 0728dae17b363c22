package flight

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wsrs/internal/otrace"
)

func newTest(t *testing.T, opts Options) *Recorder {
	t.Helper()
	if opts.Process == "" {
		opts.Process = "test"
	}
	if opts.MinSnapshotGap == 0 {
		opts.MinSnapshotGap = -1 // tests capture freely unless testing debounce
	}
	return New(opts)
}

func TestRingWraparound(t *testing.T) {
	r := newTest(t, Options{Events: 8})
	for i := 0; i < 20; i++ {
		r.Record(Event{Kind: KindSim, Name: "cell", Value: int64(i)})
	}
	if r.Len() != 8 {
		t.Fatalf("Len = %d, want 8", r.Len())
	}
	if r.Total() != 20 {
		t.Fatalf("Total = %d, want 20", r.Total())
	}
	snap := r.Capture("test", "", "", false)
	if snap == nil {
		t.Fatal("capture returned nil")
	}
	if snap.DroppedEvents != 12 {
		t.Fatalf("DroppedEvents = %d, want 12", snap.DroppedEvents)
	}
	// The ring keeps the newest 8, oldest first.
	for i, ev := range snap.Events {
		if want := int64(12 + i); ev.Value != want {
			t.Fatalf("event %d value = %d, want %d (oldest-first after wrap)", i, ev.Value, want)
		}
	}
}

func TestConcurrentRecordAndSnapshot(t *testing.T) {
	r := newTest(t, Options{Events: 64})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.Record(Event{Kind: KindPhase, Name: "queue", Value: 1})
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if snap := r.Capture("race", "", "", false); snap == nil {
			t.Fatal("capture under concurrency returned nil")
		}
	}
	close(stop)
	wg.Wait()
	if r.Last() == nil || len(r.Snapshots()) != keepSnapshots {
		t.Fatalf("snapshot history: last=%v n=%d", r.Last(), len(r.Snapshots()))
	}
}

// TestSnapshotHistoryKeepsEveryReason floods the history with one
// reason after a single snapshot of another: the lone snapshot must
// survive, as the newest of its reason, while the flood is trimmed to
// the history bound.
func TestSnapshotHistoryKeepsEveryReason(t *testing.T) {
	r := newTest(t, Options{})
	r.Capture("cell-failed", "abc", "", false)
	for i := 0; i < 2*keepSnapshots; i++ {
		r.Capture("backend-ejected", "", "", false)
	}
	snaps := r.Snapshots()
	if len(snaps) != keepSnapshots {
		t.Fatalf("history holds %d snapshots, want %d", len(snaps), keepSnapshots)
	}
	if snaps[0].Reason != "cell-failed" || snaps[0].CellDigest != "abc" {
		t.Fatalf("oldest retained snapshot is %q, want the lone cell-failed one", snaps[0].Reason)
	}
	// The flood keeps its newest members, in order.
	for i, s := range snaps[1:] {
		if s.Reason != "backend-ejected" || (i > 0 && s.Seq != snaps[i].Seq+1) {
			t.Fatalf("snapshot %d: reason %q seq %d after seq %d", i+1, s.Reason, s.Seq, snaps[i].Seq)
		}
	}
	if last := snaps[len(snaps)-1].Seq; last != uint64(2*keepSnapshots+1) {
		t.Fatalf("newest snapshot seq %d, want %d", last, 2*keepSnapshots+1)
	}
}

func TestRecordAllocFree(t *testing.T) {
	r := New(Options{Events: 512})
	ev := Event{Kind: KindSim, Name: "cell", Digest: "abc", Value: 7}
	if allocs := testing.AllocsPerRun(200, func() {
		r.Record(ev)
	}); allocs > 0 {
		t.Fatalf("Record allocates %.1f/op, budget 0", allocs)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: KindLog})
	if r.Capture("x", "", "", true) != nil || r.Last() != nil || r.Len() != 0 {
		t.Fatal("nil recorder must be inert")
	}
	st := r.State(8)
	if st.TotalEvents != 0 {
		t.Fatal("nil State must be zero")
	}
}

func TestSnapshotPersistsAndParses(t *testing.T) {
	dir := t.TempDir()
	spans := otrace.NewRecorder(16)
	sp := spans.Begin("simulate", otrace.Ctx{})
	sp.SetStr("digest", "deadbeef")
	spans.End(&sp)

	r := newTest(t, Options{Process: ":9001", Events: 16, Dir: dir, Spans: spans})
	r.Record(Event{Kind: KindSim, Name: "cell", Digest: "deadbeef", Value: 123})
	snap := r.Snapshot("watchdog", "deadbeef", "check[watchdog]: no commit in 5000 cycles")
	if snap == nil || snap.Path == "" {
		t.Fatalf("snapshot not persisted: %+v", snap)
	}
	data, err := os.ReadFile(snap.Path)
	if err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("postmortem artifact not parseable: %v", err)
	}
	if got.Reason != "watchdog" || got.CellDigest != "deadbeef" || got.Process != ":9001" {
		t.Fatalf("artifact identity: %+v", got)
	}
	if len(got.Events) != 1 || got.Events[0].Digest != "deadbeef" {
		t.Fatalf("artifact events: %+v", got.Events)
	}
	if len(got.Spans) != 1 || got.Spans[0].Name != "simulate" {
		t.Fatalf("artifact spans: %+v", got.Spans)
	}
	if !strings.HasPrefix(filepath.Base(snap.Path), "postmortem-") {
		t.Fatalf("artifact name: %s", snap.Path)
	}
}

func TestDebouncePerReason(t *testing.T) {
	r := New(Options{Process: "test", Events: 16, MinSnapshotGap: time.Hour})
	if r.Snapshot("breaker-open", "", "") == nil {
		t.Fatal("first capture must never be debounced")
	}
	if r.Snapshot("breaker-open", "", "") != nil {
		t.Fatal("repeat capture inside the gap must be suppressed")
	}
	if r.Snapshot("ejection", "", "") == nil {
		t.Fatal("a different reason must not be debounced")
	}
	if st := r.State(0); st.Suppressed != 1 {
		t.Fatalf("Suppressed = %d, want 1", st.Suppressed)
	}
}

func TestArtifactCap(t *testing.T) {
	dir := t.TempDir()
	r := newTest(t, Options{Events: 4, Dir: dir, MaxArtifacts: 2})
	for i := 0; i < 5; i++ {
		r.Capture("cap", "", "", true)
	}
	files, err := filepath.Glob(filepath.Join(dir, "postmortem-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("wrote %d artifacts, cap 2", len(files))
	}
	// Memory snapshots continue past the cap.
	if len(r.Snapshots()) != 5 {
		t.Fatalf("memory snapshots = %d, want 5", len(r.Snapshots()))
	}
}

func TestTeeRoutesLogsAndForwards(t *testing.T) {
	r := newTest(t, Options{Events: 16})
	var buf bytes.Buffer
	next := slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn})
	logger := slog.New(Tee(next, r))

	logger.Info("cell failed", "digest", "cafef00d", "err", "boom")
	logger.Warn("breaker open", "backend", ":9002")

	snap := r.Capture("test", "", "", false)
	if len(snap.Events) != 2 {
		t.Fatalf("ring holds %d events, want 2", len(snap.Events))
	}
	if snap.Events[0].Digest != "cafef00d" {
		t.Fatalf("digest attr not lifted: %+v", snap.Events[0])
	}
	if !strings.Contains(snap.Events[0].Detail, "err=boom") {
		t.Fatalf("attrs not recorded: %q", snap.Events[0].Detail)
	}
	// Below-level records reach the ring but not the next handler.
	out := buf.String()
	if strings.Contains(out, "cell failed") || !strings.Contains(out, "breaker open") {
		t.Fatalf("tee forwarding wrong: %q", out)
	}
}

func TestTeeNilFlightPassthrough(t *testing.T) {
	var buf bytes.Buffer
	next := slog.NewTextHandler(&buf, nil)
	h := Tee(next, nil)
	if h != next {
		t.Fatal("Tee(nil recorder) must return next unchanged")
	}
}
