//go:build unix

package lint

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time, user plus system, that this process and
// the children it has waited for have used so far.
func processCPU() (time.Duration, error) {
	var self, children syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &self); err != nil {
		return 0, err
	}
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &children); err != nil {
		return 0, err
	}
	ns := self.Utime.Nano() + self.Stime.Nano() + children.Utime.Nano() + children.Stime.Nano()
	return time.Duration(ns), nil
}
