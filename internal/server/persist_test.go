package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"testing"
	"time"
)

// startSnapServer starts a daemon with a snapshot directory and returns
// it with its base URL and a shutdown func; restart tests shut servers
// down explicitly mid-test rather than via t.Cleanup, because the next
// server must open the same directory after the previous one released it.
func startSnapServer(t *testing.T, dir string) (*Server, string, func()) {
	t.Helper()
	s := New(Config{Addr: "127.0.0.1:0", SnapshotDir: dir})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	done := false
	stop := func() {
		if done {
			return
		}
		done = true
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}
	t.Cleanup(stop)
	return s, "http://" + s.Addr(), stop
}

// goldenRequests is the estimate matrix the restore contract is held to:
// every mode the service exposes, at one and four workers. The deadline
// entries use a budget far beyond what the 2000-row dataset needs, so
// sample exhaustion — not the wall clock — ends every run and the result
// is a pure function of the seed.
func goldenRequests() []EstimateRequest {
	const q = "count(join(R1, R2, on a = a))"
	var reqs []EstimateRequest
	for _, workers := range []int{1, 4} {
		reqs = append(reqs,
			EstimateRequest{Query: q, Synopsis: "main", Seed: 3, Workers: workers},
			EstimateRequest{Query: q, Synopsis: "main", Seed: 3, Workers: workers, Variance: "analytic", Confidence: 0.99},
			EstimateRequest{Query: q, Synopsis: "main", Mode: "sequential", TargetRelErr: 0.2, Seed: 5, Workers: workers},
			EstimateRequest{Query: q, Synopsis: "main", Mode: "deadline", BudgetMS: 30_000, Seed: 5, Workers: workers, TimeoutMS: 60_000},
			EstimateRequest{Query: "count(R1)", Synopsis: "live", Seed: 3, Workers: workers},
		)
	}
	return reqs
}

// streamEvents posts n alternating insert/delete events to the "live"
// incremental synopsis, deterministically derived from the offset so a
// test can append distinct batches across server generations.
func streamEvents(t *testing.T, base string, offset, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ev := StreamRequest{
			Op:       "insert",
			Relation: "R1",
			Tuple:    []string{fmt.Sprint((offset + i) % 37), fmt.Sprint(100_000 + offset + i)},
		}
		if i%5 == 4 {
			// Delete a tuple inserted earlier in this same batch.
			ev.Op = "delete"
			ev.Tuple = []string{fmt.Sprint((offset + i - 2) % 37), fmt.Sprint(100_000 + offset + i - 2)}
		}
		status, raw := postJSON(t, base+"/v1/synopses/live/stream", ev)
		if status != http.StatusOK {
			t.Fatalf("stream event %d: %d %s", offset+i, status, raw)
		}
	}
}

// collectGoldens runs the golden matrix and returns the raw response
// bodies, failing on any non-200.
func collectGoldens(t *testing.T, base string) [][]byte {
	t.Helper()
	reqs := goldenRequests()
	out := make([][]byte, len(reqs))
	for i, req := range reqs {
		status, raw := postJSON(t, base+"/v1/estimate", req)
		if status != http.StatusOK {
			t.Fatalf("golden %d (%+v): %d %s", i, req, status, raw)
		}
		out[i] = raw
	}
	return out
}

// TestSnapshotRestoreByteIdentity is the satellite-2 gate: build static
// and incremental synopses, snapshot, restart a fresh server on the same
// directory, and hold every estimate — plain, sequential, and deadline,
// at workers 1 and 4 — to byte identity with its pre-restart golden. The
// snapshot stores creation specs, not reservoir state: identity holds
// because the static redraw is deterministic and the incremental
// reservoir is reproduced by replaying the append-only stream log.
func TestSnapshotRestoreByteIdentity(t *testing.T) {
	dir := t.TempDir()

	// Generation A: dataset, one static and one incremental synopsis,
	// 40 streamed events, goldens, an explicit mid-run snapshot.
	sA, baseA, stopA := startSnapServer(t, dir)
	setupDataset(t, baseA, 2000, 200)
	status, raw := postJSON(t, baseA+"/v1/synopses/live", SynopsisRequest{
		Kind: "incremental", Relations: map[string]int{"R1": 0}, Seed: 11, Capacity: 16,
	})
	if status != http.StatusCreated {
		t.Fatalf("create live: %d %s", status, raw)
	}
	streamEvents(t, baseA, 0, 40)
	goldens := collectGoldens(t, baseA)

	status, raw = postJSON(t, baseA+"/v1/snapshot", nil)
	if status != http.StatusOK {
		t.Fatalf("snapshot: %d %s", status, raw)
	}
	var snap SnapshotResponse
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Relations != 2 || snap.Synopses != 2 {
		t.Fatalf("snapshot counted %d relations / %d synopses, want 2/2", snap.Relations, snap.Synopses)
	}
	if got := sA.col.Metrics().Counter(mWALEvents).Value(); got != 40 {
		t.Errorf("WAL events = %v, want 40", got)
	}
	stopA() // Shutdown saves again and releases the directory.

	// Generation B restores and must answer byte-identically.
	sB, baseB, stopB := startSnapServer(t, dir)
	if got := sB.col.Metrics().Counter(mSnapshotRestores).Value(); got != 1 {
		t.Fatalf("restore counter = %v, want 1", got)
	}
	if got := sB.col.Metrics().Counter(mWALReplayed).Value(); got != 40 {
		t.Errorf("WAL replayed = %v, want 40", got)
	}
	reqs := goldenRequests()
	for i, raw := range collectGoldens(t, baseB) {
		if !bytes.Equal(goldens[i], raw) {
			t.Errorf("golden %d (%+v) differs after restore:\npre  %s\npost %s", i, reqs[i], goldens[i], raw)
		}
	}

	// Generation B keeps streaming; the log must extend, not fork: C
	// replays A's events plus B's and reproduces B's answers exactly.
	streamEvents(t, baseB, 40, 25)
	liveReq := EstimateRequest{Query: "count(R1)", Synopsis: "live", Seed: 3}
	status, liveB := postJSON(t, baseB+"/v1/estimate", liveReq)
	if status != http.StatusOK {
		t.Fatalf("live estimate on B: %d %s", status, liveB)
	}
	stopB()

	sC, baseC, _ := startSnapServer(t, dir)
	if got := sC.col.Metrics().Counter(mWALReplayed).Value(); got != 65 {
		t.Errorf("generation C WAL replayed = %v, want 65", got)
	}
	status, liveC := postJSON(t, baseC+"/v1/estimate", liveReq)
	if status != http.StatusOK {
		t.Fatalf("live estimate on C: %d %s", status, liveC)
	}
	if !bytes.Equal(liveB, liveC) {
		t.Errorf("incremental estimate forked across restart:\nB %s\nC %s", liveB, liveC)
	}

	// The restored catalog is intact, with tenancy and kinds preserved.
	infos := synInfos(t, baseC)
	if infos["main"].Kind != "static" || infos["live"].Kind != "incremental" {
		t.Errorf("restored synopses lost their kinds: %+v", infos)
	}
}

// TestRestoreIgnoresTenantQuota pins quota-vs-recovery: a synopsis
// legitimately created under a looser tenant quota must survive a
// restart under a tighter one. Quotas gate new admissions only — a
// startup veto would turn a config change into data loss.
func TestRestoreIgnoresTenantQuota(t *testing.T) {
	dir := t.TempDir()
	sA := New(Config{Addr: "127.0.0.1:0", SnapshotDir: dir})
	if err := sA.Start(); err != nil {
		t.Fatal(err)
	}
	baseA := "http://" + sA.Addr()
	setupDataset(t, baseA, 2000, 200) // "main": 2×200 int-pair rows resident
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sA.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Restart with a quota far below "main"'s resident bytes: the restore
	// must still succeed, and the quota must still bind new creations.
	sB := New(Config{Addr: "127.0.0.1:0", SnapshotDir: dir, TenantSynopsisBytes: 100})
	if err := sB.Start(); err != nil {
		t.Fatalf("restore under tight quota failed startup: %v", err)
	}
	baseB := "http://" + sB.Addr()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := sB.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	if _, ok := synInfos(t, baseB)["main"]; !ok {
		t.Fatal("main did not survive the restart")
	}
	status, raw := postJSON(t, baseB+"/v1/synopses/fresh", SynopsisRequest{
		Kind: "static", Relations: map[string]int{"R1": 50}, Seed: 2,
	})
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("new create under tight quota: want 413, got %d %s", status, raw)
	}
}

// TestSnapshotWithoutDirRejected pins the config gate: POST /v1/snapshot
// on a server with no snapshot directory is a 400, not a crash or a
// silent no-op.
func TestSnapshotWithoutDirRejected(t *testing.T) {
	_, base := startServer(t, Config{})
	if status, raw := postJSON(t, base+"/v1/snapshot", nil); status != http.StatusBadRequest {
		t.Fatalf("snapshot without dir: want 400, got %d %s", status, raw)
	}
}

// TestRestoreEmptyDirIsFreshStart pins cold boot: a snapshot directory
// with no manifest restores nothing and the server starts empty.
func TestRestoreEmptyDirIsFreshStart(t *testing.T) {
	s, base, _ := startSnapServer(t, t.TempDir())
	if got := s.col.Metrics().Counter(mSnapshotRestores).Value(); got != 0 {
		t.Errorf("restore counter = %v, want 0", got)
	}
	status, raw := getBody(t, base+"/v1/synopses")
	if status != http.StatusOK {
		t.Fatalf("list: %d %s", status, raw)
	}
	var infos []SynopsisInfo
	if err := json.Unmarshal(raw, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 0 {
		t.Errorf("fresh server has synopses: %+v", infos)
	}
}

// TestRefusedStreamEventNotLogged streams three inserts into a capacity-16
// incremental synopsis, then a delete of a tuple never inserted and a
// repeat of a sampled tuple. Accepted, the delete would leave three
// sampled rows for a population of two. Both answer 409, the synopsis
// keeps answering estimates, and, since a refused event never reaches the
// stream log, a restart restores exactly the acknowledged state.
func TestRefusedStreamEventNotLogged(t *testing.T) {
	dir := t.TempDir()
	_, baseA, stopA := startSnapServer(t, dir)
	setupDataset(t, baseA, 500, 50)
	status, raw := postJSON(t, baseA+"/v1/synopses/live", SynopsisRequest{
		Kind: "incremental", Relations: map[string]int{"R1": 0}, Seed: 11, Capacity: 16,
	})
	if status != http.StatusCreated {
		t.Fatalf("create live: %d %s", status, raw)
	}
	streamEvents(t, baseA, 0, 3)
	for _, ev := range []StreamRequest{
		{Op: "delete", Relation: "R1", Tuple: []string{"1", "999999"}},
		{Op: "delete", Relation: "R1", Tuple: []string{"2", "999998"}},
		{Op: "insert", Relation: "R1", Tuple: []string{"0", "100000"}},
	} {
		if status, raw := postJSON(t, baseA+"/v1/synopses/live/stream", ev); status != http.StatusConflict {
			t.Fatalf("%s %v: %d %s, want 409", ev.Op, ev.Tuple, status, raw)
		}
	}
	liveReq := EstimateRequest{Query: "count(R1)", Synopsis: "live", Seed: 3}
	status, golden := postJSON(t, baseA+"/v1/estimate", liveReq)
	if status != http.StatusOK {
		t.Fatalf("estimate after the refused events: %d %s", status, golden)
	}
	if v := estimateResp(t, golden).Estimate.Value; v != 3 {
		t.Errorf("count(R1) after the refused events = %v, want 3", v)
	}
	streamEvents(t, baseA, 10, 5)
	status, golden = postJSON(t, baseA+"/v1/estimate", liveReq)
	if status != http.StatusOK {
		t.Fatalf("estimate after later events: %d %s", status, golden)
	}
	before := synInfos(t, baseA)["live"]
	stopA()

	_, baseB, _ := startSnapServer(t, dir)
	if after := synInfos(t, baseB)["live"]; fmt.Sprint(after) != fmt.Sprint(before) {
		t.Errorf("synopsis across restart: %+v, was %+v", after, before)
	}
	status, restored := postJSON(t, baseB+"/v1/estimate", liveReq)
	if status != http.StatusOK || string(restored) != string(golden) {
		t.Errorf("restored estimate %d %s, was %s", status, restored, golden)
	}
}

// TestReplayAppliesLoggedContractBreaks pins that a restart replays every
// logged stream event as it was acknowledged, including events a log
// written before the stream contract checks holds and a live request
// would now have refused: an insert of a tuple the sample already holds,
// and a delete of an absent tuple from a fully sampled relation. The
// server starts, the synopses hold the state those events built, and
// live events are checked again.
func TestReplayAppliesLoggedContractBreaks(t *testing.T) {
	dir := t.TempDir()
	_, baseA, stopA := startSnapServer(t, dir)
	setupDataset(t, baseA, 500, 50)
	for _, name := range []string{"live", "gone"} {
		status, raw := postJSON(t, baseA+"/v1/synopses/"+name, SynopsisRequest{
			Kind: "incremental", Relations: map[string]int{"R1": 0}, Seed: 11, Capacity: 16,
		})
		if status != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, status, raw)
		}
	}
	streamEvents(t, baseA, 0, 3)
	stopA()

	wal, err := openStreamLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []walEvent{
		{Synopsis: "live", Op: "insert", Relation: "R1", Tuple: []string{"0", "100000"}},
		{Synopsis: "gone", Op: "insert", Relation: "R1", Tuple: []string{"5", "1"}},
		{Synopsis: "gone", Op: "delete", Relation: "R1", Tuple: []string{"6", "2"}},
	} {
		if err := wal.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.close(); err != nil {
		t.Fatal(err)
	}

	_, baseB, _ := startSnapServer(t, dir)
	infos := synInfos(t, baseB)
	if n := infos["live"].Relations["R1"]; n != 4 {
		t.Errorf("live holds %d sampled rows after replaying the duplicate insert, want 4", n)
	}
	if n := infos["gone"].Relations["R1"]; n != 1 {
		t.Errorf("gone holds %d sampled rows after replaying the absent delete, want 1", n)
	}
	status, raw := postJSON(t, baseB+"/v1/estimate", EstimateRequest{Query: "count(R1)", Synopsis: "live", Seed: 3})
	if status != http.StatusOK {
		t.Fatalf("estimate on the restored synopsis: %d %s", status, raw)
	}
	if v := estimateResp(t, raw).Estimate.Value; v != 4 {
		t.Errorf("count(R1) on the restored synopsis = %v, want 4", v)
	}
	for _, c := range []struct {
		ev   StreamRequest
		want int
	}{
		{StreamRequest{Op: "insert", Relation: "R1", Tuple: []string{"1", "100001"}}, http.StatusConflict},
		{StreamRequest{Op: "insert", Relation: "R1", Tuple: []string{"3", "100003"}}, http.StatusOK},
	} {
		if status, raw := postJSON(t, baseB+"/v1/synopses/live/stream", c.ev); status != c.want {
			t.Errorf("live %s %v after the restart: %d %s, want %d", c.ev.Op, c.ev.Tuple, status, raw, c.want)
		}
	}
}

// TestStreamLogFailureLeavesEventUnapplied injects a stream log append
// failure: the log's file is swapped for a read-only handle, so the next
// event cannot be logged. The event's reply is an error, the synopsis in
// memory is what it was before the event, and a restart, which replays
// the log, restores exactly that state: no answer reflects an event the
// log lost.
func TestStreamLogFailureLeavesEventUnapplied(t *testing.T) {
	dir := t.TempDir()
	srv, baseA, stopA := startSnapServer(t, dir)
	setupDataset(t, baseA, 500, 50)
	status, raw := postJSON(t, baseA+"/v1/synopses/live", SynopsisRequest{
		Kind: "incremental", Relations: map[string]int{"R1": 0}, Seed: 11, Capacity: 16,
	})
	if status != http.StatusCreated {
		t.Fatalf("create live: %d %s", status, raw)
	}
	streamEvents(t, baseA, 0, 20)
	liveReq := EstimateRequest{Query: "count(R1)", Synopsis: "live", Seed: 3}
	status, before := postJSON(t, baseA+"/v1/estimate", liveReq)
	if status != http.StatusOK {
		t.Fatalf("estimate: %d %s", status, before)
	}
	infoBefore := synInfos(t, baseA)["live"]

	wal := srv.reg.wal
	wal.mu.Lock()
	if err := wal.f.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := os.Open(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	wal.f, wal.enc = ro, json.NewEncoder(ro)
	wal.mu.Unlock()
	for _, ev := range []StreamRequest{
		{Op: "insert", Relation: "R1", Tuple: []string{"3", "777777"}},
		{Op: "insert", Relation: "R1", Tuple: []string{"4", "777778"}},
		{Op: "delete", Relation: "R1", Tuple: []string{"0", "100000"}},
	} {
		if status, raw := postJSON(t, baseA+"/v1/synopses/live/stream", ev); status != http.StatusInternalServerError {
			t.Fatalf("%s with the log failing: %d %s, want 500", ev.Op, status, raw)
		}
	}
	status, after := postJSON(t, baseA+"/v1/estimate", liveReq)
	if status != http.StatusOK || !bytes.Equal(after, before) {
		t.Errorf("estimate after the failed appends: %d %s, was %s", status, after, before)
	}
	if info := synInfos(t, baseA)["live"]; fmt.Sprint(info) != fmt.Sprint(infoBefore) {
		t.Errorf("synopsis after the failed appends: %+v, was %+v", info, infoBefore)
	}
	stopA()

	_, baseB, _ := startSnapServer(t, dir)
	if info := synInfos(t, baseB)["live"]; fmt.Sprint(info) != fmt.Sprint(infoBefore) {
		t.Errorf("synopsis replayed from the log: %+v, in memory %+v", info, infoBefore)
	}
	status, replayed := postJSON(t, baseB+"/v1/estimate", liveReq)
	if status != http.StatusOK || !bytes.Equal(replayed, before) {
		t.Errorf("estimate replayed from the log: %d %s, in memory %s", status, replayed, before)
	}
}
