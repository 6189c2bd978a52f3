//go:build !race

package offload

// raceEnabled flags that the race detector is instrumenting this build.
const raceEnabled = false
