package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// Request decoding is strict: unknown fields, trailing data and
// out-of-range parameters are all 400s, decided before any query work
// starts. The decode helpers operate on bytes (not streams) so the
// fuzz target drives exactly the code the HTTP handlers run.

// decodeRequest unmarshals one JSON value into dst, rejecting unknown
// fields and trailing garbage.
func decodeRequest(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// request is what a read endpoint decodes from its body. A request type
// declares the budgets it honours by the fields it embeds — a field a
// type does not carry is an unknown field, and a 400.
type request interface {
	// validate checks the decoded fields against the generation that
	// will answer and the server's limits.
	validate(ix *index, opts *Options) error
	// timeoutMS is the wall-clock budget asked for; 0 means the server's
	// DefaultTimeout.
	timeoutMS() int64
}

// timeoutField is the wall-clock budget of a query that scans the
// data, in milliseconds (clamped to the server's MaxTimeout; 0 means
// the server's DefaultTimeout).
type timeoutField struct {
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (t timeoutField) timeoutMS() int64 { return t.TimeoutMS }

func (t timeoutField) validate() error {
	if t.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0, got %d", t.TimeoutMS)
	}
	return nil
}

// budgetFields are the budgets of a pair-style query: the wall-clock
// budget plus a verification-phase memory budget in bytes (clamped to
// the server's MemoryBudget when one is set; 0 means the server
// default).
type budgetFields struct {
	timeoutField
	MemBudget int64 `json:"mem_budget,omitempty"`
}

func (b budgetFields) validate() error {
	if err := b.timeoutField.validate(); err != nil {
		return err
	}
	if b.MemBudget < 0 {
		return fmt.Errorf("mem_budget must be >= 0, got %d", b.MemBudget)
	}
	return nil
}

// PairsRequest asks for all column pairs with similarity >= Threshold.
type PairsRequest struct {
	Threshold float64 `json:"threshold"`
	// Algo forces a plan: "mlsh", "kmh", "mh"; "" or "auto" lets the
	// planner choose.
	Algo string `json:"algo,omitempty"`
	budgetFields
}

func (q PairsRequest) validate(*index, *Options) error {
	if q.Threshold <= 0 || q.Threshold > 1 {
		return fmt.Errorf("threshold must be in (0,1], got %v", q.Threshold)
	}
	return q.budgetFields.validate()
}

// TopKRequest asks for the K columns most similar to Col.
type TopKRequest struct {
	Col int `json:"col"`
	K   int `json:"k"`
	// Floor bounds the descending threshold search from below
	// (default 0.05).
	Floor float64 `json:"floor,omitempty"`
	Algo  string  `json:"algo,omitempty"`
	budgetFields
}

func (q TopKRequest) validate(ix *index, opts *Options) error {
	if cols := ix.data.NumCols(); q.Col < 0 || q.Col >= cols {
		return fmt.Errorf("col %d out of range [0,%d)", q.Col, cols)
	}
	if q.K < 1 || q.K > opts.MaxTopK {
		return fmt.Errorf("k must be in [1,%d], got %d", opts.MaxTopK, q.K)
	}
	if q.Floor < 0 || q.Floor > 1 {
		return fmt.Errorf("floor must be in [0,1], got %v", q.Floor)
	}
	return q.budgetFields.validate()
}

// TopPairsRequest asks for the N most similar pairs dataset-wide.
type TopPairsRequest struct {
	N     int     `json:"n"`
	Floor float64 `json:"floor,omitempty"`
	Algo  string  `json:"algo,omitempty"`
	budgetFields
}

func (q TopPairsRequest) validate(_ *index, opts *Options) error {
	if q.N < 1 || q.N > opts.MaxTopK {
		return fmt.Errorf("n must be in [1,%d], got %d", opts.MaxTopK, q.N)
	}
	if q.Floor < 0 || q.Floor > 1 {
		return fmt.Errorf("floor must be in [0,1], got %v", q.Floor)
	}
	return q.budgetFields.validate()
}

// RulesRequest asks for all rules with confidence >= MinConfidence
// (§6, support-free). Its one data pass — phase 3's verify.Verify,
// admitting by confidence — honours the wall-clock budget; a rules run
// has no memory budget to give it.
type RulesRequest struct {
	MinConfidence float64 `json:"min_confidence"`
	// Delta loosens the candidate filter (see assocmine.RuleConfig);
	// 0 means the library default.
	Delta float64 `json:"delta,omitempty"`
	timeoutField
}

func (q RulesRequest) validate(*index, *Options) error {
	if q.MinConfidence <= 0 || q.MinConfidence > 1 {
		return fmt.Errorf("min_confidence must be in (0,1], got %v", q.MinConfidence)
	}
	if q.Delta < 0 || q.Delta >= 1 {
		return fmt.Errorf("delta must be in [0,1), got %v", q.Delta)
	}
	return q.timeoutField.validate()
}

// ExprRequest asks a boolean-composition question (§7). Op selects the
// question: "cardinality" takes Expr; "similarity" and "confidence"
// take A and B. Expressions use the ParseExpr syntax. It is answered
// from the resident sketches without a data pass, so it takes no
// budget field.
type ExprRequest struct {
	Op   string `json:"op"`
	Expr string `json:"expr,omitempty"`
	A    string `json:"a,omitempty"`
	B    string `json:"b,omitempty"`
}

func (ExprRequest) timeoutMS() int64 { return 0 }

func (q ExprRequest) validate(*index, *Options) error {
	switch q.Op {
	case "cardinality":
		if q.Expr == "" {
			return errors.New(`op "cardinality" needs "expr"`)
		}
		if q.A != "" || q.B != "" {
			return fmt.Errorf("op %q takes only %q", q.Op, "expr")
		}
	case "similarity", "confidence":
		if q.A == "" || q.B == "" {
			return fmt.Errorf("op %q needs %q and %q", q.Op, "a", "b")
		}
		if q.Expr != "" {
			return fmt.Errorf("op %q takes %q and %q, not %q", q.Op, "a", "b", "expr")
		}
	default:
		return fmt.Errorf("unknown op %q (want cardinality, similarity or confidence)", q.Op)
	}
	return nil
}

// PairJSON is one similar pair in a response.
type PairJSON struct {
	I          int     `json:"i"`
	J          int     `json:"j"`
	Estimate   float64 `json:"estimate,omitempty"`
	Similarity float64 `json:"similarity"`
}

// NeighborJSON is one neighbor column in a top-k response.
type NeighborJSON struct {
	Col        int     `json:"col"`
	Estimate   float64 `json:"estimate,omitempty"`
	Similarity float64 `json:"similarity"`
}

// PairsResponse answers /v1/pairs and /v1/toppairs.
type PairsResponse struct {
	Plan  Plan       `json:"plan"`
	Count int        `json:"count"`
	Pairs []PairJSON `json:"pairs"`
}

// TopKResponse answers /v1/topk.
type TopKResponse struct {
	Plan      Plan           `json:"plan"`
	Col       int            `json:"col"`
	Neighbors []NeighborJSON `json:"neighbors"`
}

// RuleJSON is one verified rule in a response.
type RuleJSON struct {
	From       int     `json:"from"`
	To         int     `json:"to"`
	Estimate   float64 `json:"estimate"`
	Confidence float64 `json:"confidence"`
}

// RulesResponse answers /v1/rules.
type RulesResponse struct {
	Count int        `json:"count"`
	Rules []RuleJSON `json:"rules"`
}

// ExprResponse answers /v1/expr.
type ExprResponse struct {
	Op    string  `json:"op"`
	Value float64 `json:"value"`
}

// RefreshResponse answers /v1/refresh.
type RefreshResponse struct {
	NewRows int   `json:"new_rows"`
	Rows    int   `json:"rows"`
	Queries int64 `json:"queries"`
}

// HealthResponse answers /healthz.
type HealthResponse struct {
	Status   string `json:"status"`
	Rows     int    `json:"rows"`
	Cols     int    `json:"cols"`
	SigK     int    `json:"sig_k,omitempty"`
	SketchK  int    `json:"sketch_k,omitempty"`
	Queries  int64  `json:"queries"`
	Inflight int64  `json:"inflight"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
