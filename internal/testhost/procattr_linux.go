//go:build linux

package testhost

import (
	"os/exec"
	"syscall"
)

// dieWithParent asks the kernel to SIGKILL cmd's process when the thread
// that started it exits, which for a test binary means when the binary dies.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
