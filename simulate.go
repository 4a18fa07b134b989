package msc

import (
	"io"

	"msc/internal/desim"
	"msc/internal/graphio"
	"msc/internal/montecarlo"
	"msc/internal/viz"
)

// This file exposes validation and tooling helpers: the Monte-Carlo
// delivery simulator, the instance file format, and the placement
// renderer.

type (
	// SimNetwork is a network plus placement prepared for delivery
	// simulation; shortcut links never fail.
	SimNetwork = montecarlo.Network
	// SimResult reports per-pair delivery ratios.
	SimResult = montecarlo.Result
	// InstanceDocument is the JSON wire form of an MSC problem instance.
	InstanceDocument = graphio.Document
	// CostTableDocument is the JSON wire form of a per-candidate shortcut
	// price table (the "table" cost model of budget-weighted placement).
	CostTableDocument = graphio.CostTable
	// Scene is a renderable picture of a network with pairs and
	// shortcuts.
	Scene = viz.Scene
	// SVGOptions tune the SVG renderer.
	SVGOptions = viz.SVGOptions
)

// NewSimNetwork prepares a delivery simulation for the graph with the
// given placed shortcuts.
func NewSimNetwork(g *Graph, shortcuts []Edge) (*SimNetwork, error) {
	return montecarlo.NewNetwork(g, shortcuts)
}

// SimulateDelivery samples independent link up/down states for the given
// number of trials and reports, per pair, how often the designated best
// path survived and how often any route did. It validates the MSC
// guarantee end to end: a maintained pair's best path must succeed with
// probability ≥ 1 − p_t.
func SimulateDelivery(nw *SimNetwork, ps []Pair, trials int, rng *Rand) ([]SimResult, error) {
	return nw.Run(ps, trials, rng)
}

// WriteInstanceJSON serializes a problem instance (pair set, threshold and
// budget optional) for the command-line tools.
func WriteInstanceJSON(w io.Writer, g *Graph, ps *PairSet, pt float64, k int) error {
	return graphio.WriteJSON(w, graphio.FromGraph(g, ps, pt, k))
}

// StreamInstanceJSON serializes a problem instance like WriteInstanceJSON
// but streams straight from the graph through a buffered writer, never
// materializing the document or a second copy of the edge set — the
// writer for million-node instances, where the document detour alone
// would need O(E) extra heap. The output is decode-equal to
// WriteInstanceJSON's (ReadInstanceJSON yields the same document), not
// byte-equal.
func StreamInstanceJSON(w io.Writer, g *Graph, ps *PairSet, pt float64, k int) error {
	return graphio.WriteJSONStream(w, g, ps, pt, k)
}

// ReadInstanceJSON deserializes a problem instance document.
func ReadInstanceJSON(r io.Reader) (InstanceDocument, error) {
	return graphio.ReadJSON(r)
}

// ReadInstanceGraph deserializes a problem instance document and builds
// its network, validating the document once; its errors are
// ReadInstanceJSON's.
func ReadInstanceGraph(r io.Reader) (InstanceDocument, *Graph, error) {
	return graphio.ReadJSONGraph(r)
}

// ReadCostTable deserializes and validates a shortcut price table for the
// "table" cost model (mscplace -cost-table).
func ReadCostTable(r io.Reader) (CostTableDocument, error) {
	return graphio.ReadCostTable(r)
}

// WriteCostTable serializes a shortcut price table.
func WriteCostTable(w io.Writer, ct CostTableDocument) error {
	return graphio.WriteCostTable(w, ct)
}

// WriteSceneSVG renders a network + placement picture as SVG (the graph
// must carry node coordinates).
func WriteSceneSVG(w io.Writer, sc Scene, opts SVGOptions) error {
	return viz.WriteSVG(w, sc, opts)
}

// WriteSceneASCII renders a terminal sketch of the scene.
func WriteSceneASCII(w io.Writer, sc Scene) error {
	return viz.WriteASCII(w, sc)
}

// Discrete-event delivery simulation (internal/desim): periodic flows,
// per-hop Bernoulli transmissions with retries, topology switching over
// mobility traces.
type (
	// DeliverySimConfig parameterizes a discrete-event run.
	DeliverySimConfig = desim.Config
	// DeliverySimResult is the run outcome.
	DeliverySimResult = desim.Result
	// DeliveryFlow is one periodic traffic source.
	DeliveryFlow = desim.Flow
	// StaticTopology serves a fixed graph to the simulator.
	StaticTopology = desim.Static
	// TraceTopology serves mobility-trace snapshots to the simulator.
	TraceTopology = desim.TraceProvider
)

// RunDeliverySim executes a discrete-event delivery simulation.
func RunDeliverySim(cfg DeliverySimConfig) (DeliverySimResult, error) {
	return desim.Run(cfg)
}

// NewTraceTopology precomputes a mobility trace's snapshots for the
// simulator.
func NewTraceTopology(tr *MobilityTrace, fm FailureModel) (*TraceTopology, error) {
	return desim.NewTraceProvider(tr, fm)
}

// PeriodicFlows builds one staggered flow per pair with a shared period.
func PeriodicFlows(ps []Pair, periodSeconds float64) []DeliveryFlow {
	return desim.PeriodicFlows(ps, periodSeconds)
}
