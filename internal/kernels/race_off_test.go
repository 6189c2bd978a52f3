//go:build !race

package kernels

// raceEnabled flags that the race detector is instrumenting this build.
const raceEnabled = false
