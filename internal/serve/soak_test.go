package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
)

// TestSoakReturnsToBaseline: fifty rounds of create, upload, ops, reach,
// snapshot, restore and drop on one Server leave no goroutine behind and
// end with the tenant list where it started. Requests go straight to the
// handler, so no connection goroutines come and go with them, and no
// round may end with more goroutines than the count before it: an
// operation that left a goroutine behind would show after one round. The
// count may fall when a goroutine of an earlier test, still counted at the
// start, ends: on a loaded machine the OS may not have run
// TestAdmissionShedding's waiter since its last send. The soak starts no
// goroutine it does not end, so a fall lowers the baseline.
func TestSoakReturnsToBaseline(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	do := func(method, path string, body any, want int) []byte {
		t.Helper()
		var rd *bytes.Reader
		switch b := body.(type) {
		case nil:
			rd = bytes.NewReader(nil)
		case string:
			rd = bytes.NewReader([]byte(b))
		case []byte:
			rd = bytes.NewReader(b)
		default:
			buf, err := json.Marshal(b)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(buf)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
		if rec.Code != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, rec.Code, want, rec.Body)
		}
		return rec.Body.Bytes()
	}
	tenants := func() []string {
		var infos []TenantInfo
		if err := json.Unmarshal(do("GET", "/v1/tenants", nil, http.StatusOK), &infos); err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, info := range infos {
			ids = append(ids, info.ID)
		}
		return ids
	}

	nl := counterNetlist(t)
	baseTenants := tenants()
	baseGoroutines := runtime.NumGoroutine()
	for round := 0; round < 50; round++ {
		do("PUT", "/v1/tenants/a", CreateTenantRequest{}, http.StatusCreated)
		do("POST", "/v1/tenants/a/netlist", nl, http.StatusOK)
		do("POST", "/v1/tenants/a/ops", OpRequest{Op: "not", Args: []string{"tc"}, Result: "x"}, http.StatusOK)
		do("POST", "/v1/tenants/a/reach", ReachRequest{Result: "reached"}, http.StatusOK)
		snap := do("GET", "/v1/tenants/a/snapshot", nil, http.StatusOK)
		do("PUT", "/v1/tenants/b", CreateTenantRequest{}, http.StatusCreated)
		do("POST", "/v1/tenants/b/restore", snap, http.StatusOK)
		do("POST", "/v1/tenants/b/count", CountRequest{Target: "reached", Mode: "exact"}, http.StatusOK)
		do("DELETE", "/v1/tenants/a", nil, http.StatusNoContent)
		do("DELETE", "/v1/tenants/b", nil, http.StatusNoContent)
		got := runtime.NumGoroutine()
		if got > baseGoroutines {
			t.Fatalf("round %d: %d goroutines, %d before it", round, got, baseGoroutines)
		}
		baseGoroutines = got
	}
	if got := tenants(); !slices.Equal(got, baseTenants) {
		t.Fatalf("tenants %v after the soak, %v at the start", got, baseTenants)
	}
}
