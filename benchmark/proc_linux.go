package main

import (
	"os/exec"
	"syscall"
)

// killWithParent makes the kernel kill the child if the benchmark dies
// without running its deferred stops (a SIGKILL on a driver timeout).
func killWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
