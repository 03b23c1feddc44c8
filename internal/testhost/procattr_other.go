//go:build !linux

package testhost

import "os/exec"

// dieWithParent is a no-op where the kernel offers no parent-death signal;
// StartProc's cleanup still kills and reaps the child on a normal exit.
func dieWithParent(*exec.Cmd) {}
