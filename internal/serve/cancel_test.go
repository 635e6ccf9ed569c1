package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"testing"
	"time"

	"bddkit/internal/circuit"
	"bddkit/internal/model"
	"bddkit/internal/obs"
)

// TestAbandonedReachFreesSlot: a client that gives up on a reach cancels
// the operation. The tenant's slot is free for the next request well
// before the tenant deadline, and the abandoned reach leaves no trace: no
// ops or degrade count, no binding under its result name, no record on
// the quality ledger.
func TestAbandonedReachFreesSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	base := ts.URL + "/v1/tenants/t"
	if st := call(t, "PUT", base, CreateTenantRequest{DeadlineMS: 8000}, nil); st != http.StatusCreated {
		t.Fatalf("create: status %d", st)
	}
	// The Table 1 scale sequencer: its BFS runs far past the deadline.
	var nl bytes.Buffer
	if err := circuit.Write(&nl, model.Am2910(model.Am2910Config{
		Width: 8, StackDepth: 3, WithROM: true, RomSeed: 7,
	})); err != nil {
		t.Fatal(err)
	}
	if st := call(t, "POST", base+"/netlist", nl.String(), nil); st != http.StatusOK {
		t.Fatalf("netlist: status %d", st)
	}
	var funcs []FuncInfo
	call(t, "GET", base+"/funcs", nil, &funcs)
	tn, err := s.tenant("t")
	if err != nil {
		t.Fatal(err)
	}
	ops0, degrades0 := tn.ops.Value(), tn.degrades.Value()
	ledger0 := tn.sink.Ledger().Snapshot()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	body, _ := json.Marshal(ReachRequest{Mode: "bfs", Result: "reached"})
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/reach", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("the reach answered (status %d) before the client gave up", resp.StatusCode)
	}

	// The next request on the tenant gets the slot promptly.
	start := time.Now()
	if st := call(t, "POST", base+"/count", CountRequest{Target: funcs[0].Name}, nil); st != http.StatusOK {
		t.Fatalf("count after the abandoned reach: status %d", st)
	}
	if wait := time.Since(start); wait > time.Second {
		t.Fatalf("the next request waited %v for the slot", wait)
	}

	if n := tn.ops.Value() - ops0; n != 1 { // the count
		t.Errorf("ops counter moved by %d, want 1 (the count only)", n)
	}
	if tn.degrades.Value() != degrades0 {
		t.Error("the abandoned reach counted a degrade")
	}
	var after []FuncInfo
	call(t, "GET", base+"/funcs", nil, &after)
	for _, f := range after {
		if f.Name == "reached" {
			t.Fatal("the abandoned reach bound its result")
		}
	}
	if ledger := tn.sink.Ledger().Snapshot(); ledger.Ops != ledger0.Ops {
		t.Errorf("the abandoned reach filed %d ledger records: %+v", ledger.Ops-ledger0.Ops, ledger.PerOp)
	}
}

// TestQueuedClientLeaves: a request queued for a busy tenant whose client
// leaves drops out of the queue and is not counted as a shed.
func TestQueuedClientLeaves(t *testing.T) {
	reg := obs.NewRegistry()
	tn := &Tenant{adm: newAdmission(4, time.Minute), sheds: reg.Counter("sheds")}
	release, err := tn.admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := tn.admit(ctx)
		done <- err
	}()
	for tn.adm.waiting.Load() != 1 {
		runtime.Gosched()
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) || shedReason(err) != "" {
		t.Fatalf("queued request whose client left: %v, want context.Canceled", err)
	}
	if n := tn.adm.waiting.Load(); n != 0 {
		t.Fatalf("%d requests still queued", n)
	}
	if n := tn.sheds.Value(); n != 0 {
		t.Fatalf("the departed client counted as %d sheds", n)
	}
}
