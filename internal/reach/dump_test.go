package reach

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"bddkit/internal/approx"
	"bddkit/internal/bdd"
	"bddkit/internal/circuit"
	"bddkit/internal/model"
	"bddkit/internal/obs"
)

// TestBudgetAbortDumpHasStackAndLedger: when node-budget exhaustion aborts
// a traversal under an armed observability session, the flight-recorder
// dump must carry (a) the bdd.abort event with the open-span stack — that
// is the only record naming *where* the run died, since open spans have
// not written themselves yet — and (b) the most recent quality.op ledger
// record, the last quality decision made before death. Checked on the
// serial engine and on Workers=4 (the parallel allocator has its own
// limit-check path).
func TestBudgetAbortDumpHasStackAndLedger(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sess, err := obs.Config{
				Trace: filepath.Join(t.TempDir(), "trace.jsonl"),
			}.Start()
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			var dump bytes.Buffer
			sess.SetDumpWriter(&dump)

			nl := model.S5378(model.S5378Config{Units: 4, UnitWidth: 4})
			c, err := circuit.Compile(nl, circuit.CompileOptions{
				BDDConfig: &bdd.Config{Workers: workers, Observer: sess.Observer()},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Release()
			tr, err := NewTR(c, DefaultTROptions())
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Release()

			// File a real ledger record before the traversal so the flight
			// ring holds a quality.op to dump: approximate one output.
			r := approx.HeavyBranch(c.M, c.Outputs[0], 8)
			c.M.Deref(r)

			// A ceiling below what the first image needs trips the abort
			// inside BFS; the traversal recovers and reports incomplete.
			var res Result
			if err := c.M.Run(context.Background(), c.M.NodeCount()+16, func() error {
				res = tr.BFS(c.Init, Options{})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			defer c.M.Deref(res.Reached)
			if res.Completed {
				t.Fatal("traversal completed under a microscopic node limit")
			}

			out := dump.String()
			if !strings.Contains(out, "node budget exhausted") {
				t.Fatalf("no flight dump on budget abort:\n%s", out)
			}
			if !strings.Contains(out, `"bdd.abort"`) {
				t.Fatalf("dump missing the bdd.abort event:\n%s", out)
			}
			// The abort event's span stack must place the death inside the
			// traversal iteration.
			if !strings.Contains(out, `"stack"`) || !strings.Contains(out, "reach.iteration") {
				t.Fatalf("dump's abort event carries no span stack:\n%s", out)
			}
			// The pre-abort ledger record must be in the ring.
			if !strings.Contains(out, `"quality.op"`) || !strings.Contains(out, `"hb"`) {
				t.Fatalf("dump missing the last quality.op ledger record:\n%s", out)
			}
		})
	}
}
