//go:build race

package arena

// raceEnabled flags that the race detector is instrumenting this build.
// Race instrumentation inserts its own allocations, so AllocsPerRun and
// TotalAlloc-budget gates are meaningless under -race and skip.
const raceEnabled = true
