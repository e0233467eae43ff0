// Package predictor defines the contract between branch predictors and the
// trace-driven pipeline simulator. The design follows the hardware reality
// that Section 4 of the paper analyses: everything a predictor reads at
// prediction time is captured into a per-branch context that travels down
// the pipeline with the branch, so that at retire time the update can be
// performed either from re-read table state (scenarios [A] and [C]) or
// exclusively from the values captured at fetch (scenario [B]).
package predictor

import "repro/internal/memarray"

// Scenario enumerates the update-timing policies of Section 4.1.2.
type Scenario int

const (
	// ScenarioI is the oracle: tables are updated immediately after each
	// prediction. Not implementable in hardware (wrong-path pollution);
	// used as the reference.
	ScenarioI Scenario = iota
	// ScenarioA re-reads the prediction tables at retire time before the
	// update: up to 3 accesses per branch.
	ScenarioA
	// ScenarioB reads only at fetch time; the update is computed from the
	// values propagated down the pipeline: at most 1 read + 1 write.
	ScenarioB
	// ScenarioC re-reads at retire time only for mispredicted branches.
	ScenarioC
)

// Letter returns the bare scenario letter ("I", "A", "B", "C"): the
// machine-readable form used in harness cell keys and CLI flags, versus
// String's bracketed paper notation.
func (s Scenario) Letter() string {
	switch s {
	case ScenarioI:
		return "I"
	case ScenarioA:
		return "A"
	case ScenarioB:
		return "B"
	case ScenarioC:
		return "C"
	}
	return "?"
}

// String returns the paper's bracket notation for the scenario.
func (s Scenario) String() string {
	switch s {
	case ScenarioI:
		return "[I]"
	case ScenarioA:
		return "[A]"
	case ScenarioB:
		return "[B]"
	case ScenarioC:
		return "[C]"
	}
	return "[?]"
}

// Predictor is the generic contract implemented by every predictor in this
// repository. C is the per-branch pipeline context: a plain struct holding
// the indices, tags and counter values the predictor read at prediction
// time. The simulator owns a ring of C values (one per in-flight branch)
// so the hot path allocates nothing.
type Predictor[C any] interface {
	// Name identifies the configuration for reports.
	Name() string
	// StorageBits returns the predictor storage budget in bits.
	StorageBits() int
	// Predict computes the direction prediction for pc and records into
	// ctx everything that must travel with the branch.
	Predict(pc uint64, ctx *C) bool
	// OnResolve is called once per branch, immediately after Predict, with
	// the architectural outcome (trace-driven simulation is on the correct
	// path, so speculative history equals correct history, as the paper
	// notes). Implementations update speculative state here: global/path/
	// local histories, folded histories, IUM and SLIM structures.
	OnResolve(pc uint64, taken, mispredicted bool, ctx *C)
	// Retire performs the predictor table update at retire time. When
	// reread is true the implementation may consult current table state;
	// when false it must compute the update purely from ctx (scenario [B],
	// and scenario [C] on correctly predicted branches).
	Retire(pc uint64, taken bool, ctx *C, reread bool)
	// AccessStats exposes the predictor's access accounting.
	AccessStats() *memarray.Stats
	// Reset returns the predictor to its freshly-constructed state without
	// allocating, so pools can reuse warmed instances across runs. After
	// Reset the predictor must behave byte-identically to a new instance
	// built from the same configuration.
	Reset()
}
