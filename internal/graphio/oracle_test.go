package graphio

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// readJSONReflect is the encoding/json reader ReadJSON replaced, kept as
// the reference oracle: wherever ReadJSON accepts, this must accept the
// same Document.
func readJSONReflect(r io.Reader) (Document, error) {
	var doc Document
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return Document{}, &ValidationError{Format: "json", Field: "document", Msg: "decode: " + err.Error()}
	}
	if err := validateReference(doc); err != nil {
		return Document{}, err
	}
	return doc, nil
}

// validateReference is the map-based Validate that the sort-based one
// replaced, kept as the oracle for error parity: both must report the
// same error, field and message, on every document.
func validateReference(doc Document) error {
	if doc.Nodes <= 0 {
		return jsonErr("nodes", "must be positive, got %d", doc.Nodes)
	}
	if doc.Nodes > MaxNodes {
		return jsonErr("nodes", "%d exceeds the %d-node cap", doc.Nodes, MaxNodes)
	}
	if doc.Coords != nil && len(doc.Coords) != doc.Nodes {
		return jsonErr("coords", "%d entries for %d nodes", len(doc.Coords), doc.Nodes)
	}
	for i, c := range doc.Coords {
		if !isFinite(c[0]) || !isFinite(c[1]) {
			return jsonErr(fmt.Sprintf("coords[%d]", i), "non-finite position (%v, %v)", c[0], c[1])
		}
	}
	if doc.Labels != nil && len(doc.Labels) != doc.Nodes {
		return jsonErr("labels", "%d entries for %d nodes", len(doc.Labels), doc.Nodes)
	}
	seenEdges := make(map[[2]int32]bool, len(doc.Edges))
	for i, e := range doc.Edges {
		field := fmt.Sprintf("edges[%d]", i)
		if e.U < 0 || e.V < 0 || int(e.U) >= doc.Nodes || int(e.V) >= doc.Nodes {
			return jsonErr(field, "endpoint (%d,%d) outside 0..%d", e.U, e.V, doc.Nodes-1)
		}
		if e.U == e.V {
			return jsonErr(field, "self-loop at node %d", e.U)
		}
		if math.IsNaN(e.Fail) || e.Fail < 0 || e.Fail >= 1 {
			return jsonErr(field+".p_fail", "%v outside [0, 1)", e.Fail)
		}
		key := [2]int32{e.U, e.V}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		if seenEdges[key] {
			return jsonErr(field, "duplicate edge (%d,%d)", e.U, e.V)
		}
		seenEdges[key] = true
	}
	seenPairs := make(map[[2]int32]bool, len(doc.Pairs))
	for i, p := range doc.Pairs {
		field := fmt.Sprintf("pairs[%d]", i)
		if p[0] < 0 || p[1] < 0 || int(p[0]) >= doc.Nodes || int(p[1]) >= doc.Nodes {
			return jsonErr(field, "pair (%d,%d) outside 0..%d", p[0], p[1], doc.Nodes-1)
		}
		if p[0] == p[1] {
			return jsonErr(field, "pair of node %d with itself", p[0])
		}
		key := [2]int32{p[0], p[1]}
		if key[0] > key[1] {
			key[0], key[1] = key[1], key[0]
		}
		if seenPairs[key] {
			return jsonErr(field, "duplicate pair (%d,%d)", p[0], p[1])
		}
		seenPairs[key] = true
	}
	if math.IsNaN(doc.FailureThreshold) || doc.FailureThreshold < 0 || doc.FailureThreshold >= 1 {
		return jsonErr("failure_threshold", "%v outside [0, 1)", doc.FailureThreshold)
	}
	if doc.Budget < 0 {
		return jsonErr("budget", "must be non-negative, got %d", doc.Budget)
	}
	return nil
}
