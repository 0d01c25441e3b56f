//go:build !linux

package main

import "os/exec"

// killWithParent has no portable form; deferred stops and the signal
// handler still cover every orderly exit.
func killWithParent(*exec.Cmd) {}
