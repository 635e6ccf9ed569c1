package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// fuzzEndpoints are the routes FuzzServeRequest addresses. None names the
// tenant "victim": netlist and restore go to "empty", a tenant holding
// nothing, so that they get past the already-compiled check, and the
// rest to "fuzz", which holds the compiled counter.
var fuzzEndpoints = []struct{ method, path string }{
	{"PUT", "/v1/tenants/fresh"},
	{"GET", "/v1/tenants/fuzz"},
	{"DELETE", "/v1/tenants/fuzz"},
	{"POST", "/v1/tenants/empty/netlist"},
	{"POST", "/v1/tenants/empty/restore"},
	{"GET", "/v1/tenants/fuzz/snapshot"},
	{"GET", "/v1/tenants/fuzz/funcs"},
	{"GET", "/v1/tenants/fuzz/quality"},
	{"POST", "/v1/tenants/fuzz/ops"},
	{"POST", "/v1/tenants/fuzz/approx"},
	{"POST", "/v1/tenants/fuzz/decomp"},
	{"POST", "/v1/tenants/fuzz/reach"},
	{"POST", "/v1/tenants/fuzz/count"},
	{"POST", "/v1/tenants/fuzz/sample"},
	{"GET", "/v1/tenants"},
	{"GET", "/metrics"},
	{"GET", "/healthz"},
}

// FuzzServeRequest sends one request, an arbitrary body to one of the
// API's endpoints, to a server holding three tenants: "victim" and "fuzz",
// each with the counter netlist compiled and victim with one more
// function, and the empty tenant "empty". The seed corpus under
// testdata/fuzz/FuzzServeRequest holds one valid request per endpoint.
// Whatever the request, the server must answer it without panicking and
// without a 5xx other than 503 (pool full), and the victim's function
// list and live-node count must not change. The 4 KB body limit keeps a
// fuzzed netlist, which compiles without a node budget, small.
func FuzzServeRequest(f *testing.F) {
	netlist, err := os.ReadFile("../../testdata/counter.net")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		ep := fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)]
		s := New(Config{
			DefaultDeadline: time.Second,
			MaxTenants:      4,
			MaxBodyBytes:    4 << 10,
		})
		defer s.Close()
		h := s.Handler()
		do := func(method, path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return rec
		}
		must := func(method, path string, body []byte) *httptest.ResponseRecorder {
			rec := do(method, path, body)
			if rec.Code >= 300 {
				t.Fatalf("set-up %s %s: status %d: %s", method, path, rec.Code, rec.Body)
			}
			return rec
		}
		for _, id := range []string{"victim", "fuzz"} {
			must("PUT", "/v1/tenants/"+id, nil)
			must("POST", "/v1/tenants/"+id+"/netlist", netlist)
		}
		must("POST", "/v1/tenants/victim/ops", []byte(`{"op":"not","args":["tc"],"result":"ntc"}`))
		must("PUT", "/v1/tenants/empty", nil)
		victim := func() (funcs, info string) {
			return must("GET", "/v1/tenants/victim/funcs", nil).Body.String(),
				must("GET", "/v1/tenants/victim", nil).Body.String()
		}
		funcs, info := victim()

		rec := do(ep.method, ep.path, body)
		t.Logf("%s %s: status %d", ep.method, ep.path, rec.Code)
		if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s %q: status %d: %s", ep.method, ep.path, body, rec.Code, rec.Body)
		}
		if f2, i2 := victim(); f2 != funcs || i2 != info {
			t.Fatalf("%s %s %q changed the victim tenant:\nfuncs %s -> %s\ninfo %s -> %s",
				ep.method, ep.path, body, funcs, f2, info, i2)
		}
	})
}
