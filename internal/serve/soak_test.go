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
// snapshot, restore and drop on one Server, with the tenants' worker
// count alternating between 1 and 2 (the chain and the tree image
// schedule), end with the goroutine count and the tenant list where they
// started. Requests go straight to the handler, so no connection
// goroutines come and go with them, and the count is compared exactly:
// an operation that left a goroutine behind would show after one round.
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
		workers := 1 + round%2
		do("PUT", "/v1/tenants/a", CreateTenantRequest{Workers: workers}, http.StatusCreated)
		do("POST", "/v1/tenants/a/netlist", nl, http.StatusOK)
		do("POST", "/v1/tenants/a/ops", OpRequest{Op: "not", Args: []string{"tc"}, Result: "x"}, http.StatusOK)
		do("POST", "/v1/tenants/a/reach", ReachRequest{Result: "reached"}, http.StatusOK)
		snap := do("GET", "/v1/tenants/a/snapshot", nil, http.StatusOK)
		do("PUT", "/v1/tenants/b", CreateTenantRequest{Workers: workers}, http.StatusCreated)
		do("POST", "/v1/tenants/b/restore", snap, http.StatusOK)
		do("POST", "/v1/tenants/b/count", CountRequest{Target: "reached", Mode: "exact"}, http.StatusOK)
		do("DELETE", "/v1/tenants/a", nil, http.StatusNoContent)
		do("DELETE", "/v1/tenants/b", nil, http.StatusNoContent)
		if got := runtime.NumGoroutine(); got != baseGoroutines {
			t.Fatalf("round %d (workers %d): %d goroutines, %d at the start", round, workers, got, baseGoroutines)
		}
	}
	if got := tenants(); !slices.Equal(got, baseTenants) {
		t.Fatalf("tenants %v after the soak, %v at the start", got, baseTenants)
	}
}
