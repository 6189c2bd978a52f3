//go:build !race

package arena

// raceEnabled flags that the race detector is instrumenting this build.
const raceEnabled = false
