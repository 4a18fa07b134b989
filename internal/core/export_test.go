package core

// Objective and SplitObjective expose objective and splitObjective to the
// external tests, which can build dynamic problems.
var (
	Objective      = objective
	SplitObjective = splitObjective
)
