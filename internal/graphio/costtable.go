package graphio

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// CostRecord prices one candidate shortcut by its endpoints.
type CostRecord struct {
	U    int32   `json:"u"`
	V    int32   `json:"v"`
	Cost float64 `json:"cost"`
}

// CostTable is the JSON wire form of a per-candidate shortcut price table
// (the "table" cost model of budget-weighted placement). Endpoint pairs not
// listed in Costs price at Default; a Default of 0 means the built-in unit
// price 1.
type CostTable struct {
	// Default is the price of every pair the table does not list
	// (0 means 1).
	Default float64 `json:"default,omitempty"`
	// Costs lists the explicitly priced pairs.
	Costs []CostRecord `json:"costs,omitempty"`
	// index maps canonical (min, max) endpoint pairs to prices; built by
	// Validate/ReadCostTable.
	index map[[2]int32]float64
}

// Cost returns the price of the shortcut (u, v): the listed price when the
// pair appears in the table (either endpoint order), else Default, else 1.
func (ct *CostTable) Cost(u, v int32) float64 {
	key := [2]int32{u, v}
	if key[0] > key[1] {
		key[0], key[1] = key[1], key[0]
	}
	if c, ok := ct.index[key]; ok {
		return c
	}
	if ct.Default > 0 {
		return ct.Default
	}
	return 1
}

// Validate checks the table's invariants — the price contract of
// core.Options.Costs: Default finite and non-negative (0 delegates to the
// unit price), every record a non-self-loop pair with a positive non-NaN
// price (+Inf is legal: it marks an unaffordable pair), and no pair listed
// twice in either endpoint order. It also builds the lookup index used by
// Cost. ReadCostTable calls it on every decoded table.
func (ct *CostTable) Validate() error {
	if math.IsNaN(ct.Default) || math.IsInf(ct.Default, 0) || ct.Default < 0 {
		return &ValidationError{Format: "cost-table", Field: "default",
			Msg: fmt.Sprintf("%v must be finite and non-negative", ct.Default)}
	}
	index := make(map[[2]int32]float64, len(ct.Costs))
	for i, rec := range ct.Costs {
		field := fmt.Sprintf("costs[%d]", i)
		if rec.U < 0 || rec.V < 0 {
			return &ValidationError{Format: "cost-table", Field: field,
				Msg: fmt.Sprintf("negative node id (%d,%d)", rec.U, rec.V)}
		}
		if int(rec.U) >= MaxNodes || int(rec.V) >= MaxNodes {
			return &ValidationError{Format: "cost-table", Field: field,
				Msg: fmt.Sprintf("node id (%d,%d) exceeds the %d-node cap", rec.U, rec.V, MaxNodes)}
		}
		if rec.U == rec.V {
			return &ValidationError{Format: "cost-table", Field: field,
				Msg: fmt.Sprintf("self-loop at node %d", rec.U)}
		}
		if math.IsNaN(rec.Cost) || rec.Cost <= 0 {
			return &ValidationError{Format: "cost-table", Field: field + ".cost",
				Msg: fmt.Sprintf("%v must be positive (+Inf marks unaffordable)", rec.Cost)}
		}
		key := [2]int32{rec.U, rec.V}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		if _, dup := index[key]; dup {
			return &ValidationError{Format: "cost-table", Field: field,
				Msg: fmt.Sprintf("duplicate pair (%d,%d)", rec.U, rec.V)}
		}
		index[key] = rec.Cost
	}
	ct.index = index
	return nil
}

// WriteCostTable encodes the table with indentation.
func WriteCostTable(w io.Writer, ct CostTable) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ct)
}

// ReadCostTable decodes and validates a shortcut price table. Malformed
// JSON, unknown fields, trailing data after the table, and tables
// violating the price invariants all come back as a *ValidationError
// wrapping ErrInvalid; ReadCostTable never panics, whatever the input.
func ReadCostTable(r io.Reader) (CostTable, error) {
	var ct CostTable
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ct); err != nil {
		return CostTable{}, &ValidationError{Format: "cost-table", Field: "document", Msg: "decode: " + err.Error()}
	}
	if _, err := dec.Token(); err != io.EOF {
		return CostTable{}, &ValidationError{Format: "cost-table", Field: "document", Msg: "trailing data after the table"}
	}
	if err := ct.Validate(); err != nil {
		return CostTable{}, err
	}
	return ct, nil
}
