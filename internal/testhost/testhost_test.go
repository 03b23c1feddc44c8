package testhost

import (
	"flag"
	"os"
	"os/exec"
	"testing"
	"time"
)

// sleeperArg turns a re-executed test binary into a long-lived child.
const sleeperArg = "testhost-sleeper"

// TestStartProcReapsChild re-executes the test binary as a sleeper through
// StartProc inside a subtest and asserts the child has been killed and
// reaped by the time the subtest returns.
func TestStartProcReapsChild(t *testing.T) {
	if flag.Arg(0) == sleeperArg {
		time.Sleep(time.Minute)
		return
	}
	var cmd *exec.Cmd
	t.Run("child", func(t *testing.T) {
		cmd = StartProc(t, os.Args[0], "-test.run=^TestStartProcReapsChild$", "--", sleeperArg)
	})
	if cmd.ProcessState == nil {
		// Not reaped: clean up so the failing run leaves nothing behind.
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatal("StartProc's child outlived its test without being reaped")
	}
}
