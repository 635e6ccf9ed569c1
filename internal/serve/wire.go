// Package serve implements the multi-tenant BDD service behind cmd/bddserve:
// per-tenant sessions (one bdd.Manager each), an HTTP/JSON API over the
// library's build/approximate/decompose/traverse/count surface, admission
// control with bounded queueing and deadline shedding, and budget-triggered
// degradation through the paper's under-approximation operators. A tenant
// that exceeds its live-node quota mid-operation receives a degraded but
// containment-sound answer, with the loss filed in the obs quality ledger
// and a degradation marker in the response envelope.
package serve

// Wire types: the JSON bodies of the v1 API. Every successful operation
// response is wrapped in Envelope; errors are {"error": "..."} with an
// HTTP status (429 carries Retry-After).

// Envelope wraps every operation result with tenancy and budget context.
type Envelope struct {
	Tenant string `json:"tenant"`
	Op     string `json:"op"`
	// Degraded marks a budget-degraded answer: the result is sound (an
	// under-approximation of the exact answer) but not exact.
	Degraded bool `json:"degraded,omitempty"`
	// DegradeReason says which limit tripped and how the answer was
	// degraded.
	DegradeReason string `json:"degrade_reason,omitempty"`
	Result        any    `json:"result,omitempty"`
	LiveNodes     int    `json:"live_nodes"`
	Quota         int    `json:"quota"`
	ElapsedNS     int64  `json:"elapsed_ns"`
}

// ErrorBody is the JSON error payload.
type ErrorBody struct {
	Error string `json:"error"`
}

// CreateTenantRequest configures a new tenant session. Zero values take
// the server defaults.
type CreateTenantRequest struct {
	// Quota is the live-node budget for this tenant's manager.
	Quota int `json:"quota,omitempty"`
	// Workers selects the tenant's image schedule, as bdd.Config.Workers
	// does: 1 conjoins the clusters in a chain, more in a pairwise tree
	// (0 = server default).
	Workers int `json:"workers,omitempty"`
	// CacheBits sizes the tenant manager's computed table (1<<bits); at
	// most 22.
	CacheBits uint `json:"cache_bits,omitempty"`
	// QueueDepth bounds how many requests may wait for the tenant's
	// operation slot before new ones are shed with 429.
	QueueDepth int `json:"queue_depth,omitempty"`
	// DeadlineMS bounds each operation's wall-clock time.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// TenantInfo describes a tenant in responses.
type TenantInfo struct {
	ID         string `json:"id"`
	Quota      int    `json:"quota"`
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	DeadlineMS int64  `json:"deadline_ms"`
	LiveNodes  int    `json:"live_nodes"`
	Functions  int    `json:"functions"`
	Compiled   bool   `json:"compiled"`
}

// OpRequest applies a boolean combinator to named functions and stores
// the result under a new name.
type OpRequest struct {
	// Op is one of and, or, xor, not.
	Op string `json:"op"`
	// Args names the operand functions (1 for not, 2+ for the rest).
	Args []string `json:"args"`
	// Result is the name to bind the result to.
	Result string `json:"result"`
}

// FuncInfo describes one named function.
type FuncInfo struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
}

// ApproxRequest runs one of the paper's under-approximation operators.
type ApproxRequest struct {
	// Op is one of rua, sp, hb, ua, c1, c2.
	Op     string `json:"op"`
	Target string `json:"target"`
	// Threshold is the operator's size threshold (0 = unrestricted).
	Threshold int `json:"threshold,omitempty"`
	// Quality is the remap quality factor (rua/c1/c2; 0 = 1.0).
	Quality float64 `json:"quality,omitempty"`
	// Alpha is the UA density parameter (ua only; 0 = 0.5).
	Alpha float64 `json:"alpha,omitempty"`
	// Result is the name to bind the approximation to ("" = don't bind).
	Result string `json:"result,omitempty"`
}

// ApproxResult reports the approximation's quality accounting.
type ApproxResult struct {
	Name         string  `json:"name,omitempty"`
	NodesIn      int     `json:"nodes_in"`
	NodesOut     int     `json:"nodes_out"`
	MassIn       float64 `json:"mass_in"`
	MassOut      float64 `json:"mass_out"`
	MassRetained float64 `json:"mass_retained"`
}

// DecompRequest decomposes a named function.
type DecompRequest struct {
	// Selector is one of cofactor, band, disjoint, mcmillan.
	Selector string `json:"selector"`
	Target   string `json:"target"`
}

// DecompResult reports the decomposition structure.
type DecompResult struct {
	Selector    string `json:"selector"`
	NodesIn     int    `json:"nodes_in"`
	FactorNodes []int  `json:"factor_nodes"`
	SharedNodes int    `json:"shared_nodes"`
}

// ReachRequest runs reachability over the uploaded netlist's transition
// relation.
type ReachRequest struct {
	// Mode is bfs or hd.
	Mode string `json:"mode,omitempty"`
	// Threshold is the HD frontier-subset threshold.
	Threshold int `json:"threshold,omitempty"`
	// MaxIterations bounds the traversal (0 = none).
	MaxIterations int `json:"max_iterations,omitempty"`
	// Result binds the reached-state predicate to a name ("" = don't).
	Result string `json:"result,omitempty"`
}

// ReachResult reports a traversal.
type ReachResult struct {
	Name       string  `json:"name,omitempty"`
	States     float64 `json:"states"`
	Nodes      int     `json:"nodes"`
	Iterations int     `json:"iterations"`
	Completed  bool    `json:"completed"`
}

// CountRequest queries a named function's model count.
type CountRequest struct {
	Target string `json:"target"`
	// Mode is exact, fraction, or weighted.
	Mode string `json:"mode,omitempty"`
	// Bias is the per-variable true-probability for weighted counting.
	Bias float64 `json:"bias,omitempty"`
}

// CountResult reports a count query. Exact counts are decimal strings
// (they exceed float64 well before they exceed a served workload).
type CountResult struct {
	Mode     string  `json:"mode"`
	Exact    string  `json:"exact,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
	Weighted float64 `json:"weighted,omitempty"`
}

// SampleRequest draws uniform satisfying assignments.
type SampleRequest struct {
	Target string `json:"target"`
	N      int    `json:"n,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
}

// SampleResult carries the drawn assignments as 0/1 strings, one
// character per variable.
type SampleResult struct {
	Count   string   `json:"count"`
	Samples []string `json:"samples"`
}

// RestoreResult reports a snapshot restore.
type RestoreResult struct {
	Functions []FuncInfo `json:"functions"`
}
