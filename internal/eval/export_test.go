package eval

// The external test package's view of the internal test helpers.
var (
	EvalView = evalOn
	FrameKey = frameKey
)
