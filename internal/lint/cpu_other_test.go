//go:build !unix

package lint

import (
	"errors"
	"time"
)

// processCPU reports that this platform has no getrusage: the budget test
// falls back to the wall clock.
func processCPU() (time.Duration, error) {
	return 0, errors.New("no process CPU time on this platform")
}
