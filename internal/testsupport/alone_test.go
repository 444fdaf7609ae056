package testsupport

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// fixtureEnv tells TestAloneFixture what to do in the test binaries the
// tests below start.
const fixtureEnv = "REPRO_TESTSUPPORT_FIXTURE"

// TestAloneFixture is the test that the tests below run through Alone: in a
// test binary they start, it does what fixtureEnv names. Without it, it does
// nothing.
func TestAloneFixture(t *testing.T) {
	mode := os.Getenv(fixtureEnv)
	if mode == "" {
		return
	}
	if Alone(t) {
		return
	}
	switch mode {
	case "fail":
		t.Log("a line the child logged")
		t.Fatal("the child failed")
	case "skip":
		t.Skip("the child skipped")
	case "env":
		t.Logf("pid=%d GOMAXPROCS=%d CP_WORKERS=%s", os.Getpid(), runtime.GOMAXPROCS(0), os.Getenv("CP_WORKERS"))
	case "subtests":
		t.Run("kept", func(t *testing.T) { t.Log("a subtest's line") })
		t.Run("left", func(t *testing.T) { t.Skip("a subtest skipped") })
		t.Run("broken", func(t *testing.T) { t.Error("a subtest failed") })
	case "again":
		if Alone(t) {
			t.Fatal("a child re-executed itself")
		}
		t.Logf("ppid=%d", os.Getppid())
	}
}

// runFixture runs TestAloneFixture in a fresh test binary with the fixture
// mode and env set, and returns that binary's output, its pid and how it
// exited.
func runFixture(t *testing.T, mode string, args []string, env ...string) (string, int, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestAloneFixture$", "-test.count=1", "-test.v=true"}, args...)...)
	cmd.Env = append(append(os.Environ(), env...), fixtureEnv+"="+mode)
	out, err := cmd.CombinedOutput()
	return string(out), cmd.Process.Pid, err
}

func mustContain(t *testing.T, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("the output lacks %q:\n%s", w, out)
		}
	}
}

func TestAloneFailingChildFailsTheParent(t *testing.T) {
	out, _, err := runFixture(t, "fail", nil)
	if err == nil {
		t.Errorf("the parent of a failing child passed:\n%s", out)
	}
	mustContain(t, out, "--- FAIL: TestAloneFixture", "a line the child logged", "the child failed")
}

func TestAloneSkippingChildSkipsTheParent(t *testing.T) {
	out, _, err := runFixture(t, "skip", nil)
	if err != nil {
		t.Errorf("the parent of a skipping child failed (%v):\n%s", err, out)
	}
	mustContain(t, out, "--- SKIP: TestAloneFixture", "the child skipped")
}

// Each subtest's result and log reach the parent as a subtest of its own.
func TestAloneReportsSubtests(t *testing.T) {
	out, _, err := runFixture(t, "subtests", nil)
	if err == nil {
		t.Errorf("the parent of a failing subtest passed:\n%s", out)
	}
	mustContain(t, out, "    --- PASS: TestAloneFixture/kept", "a subtest's line",
		"    --- SKIP: TestAloneFixture/left", "a subtest skipped",
		"    --- FAIL: TestAloneFixture/broken", "a subtest failed", "--- FAIL: TestAloneFixture (")
}

// The parent runs at three Ps (-test.cpu) with GOMAXPROCS=1 in its
// environment: the child runs at the parent's three, with its CP_WORKERS, in
// a process of its own.
func TestAloneChildGetsGOMAXPROCSAndCPWorkers(t *testing.T) {
	out, pid, err := runFixture(t, "env", []string{"-test.cpu=3"}, "GOMAXPROCS=1", "CP_WORKERS=5")
	if err != nil {
		t.Fatalf("%v:\n%s", err, out)
	}
	mustContain(t, out, "--- PASS: TestAloneFixture", "GOMAXPROCS=3 CP_WORKERS=5")
	if strings.Contains(out, "pid="+strconv.Itoa(pid)+" ") {
		t.Errorf("the test ran in the parent, pid %d:\n%s", pid, out)
	}
}

// A second call in the child returns false, and the child is the parent's
// own.
func TestAloneChildNeverReexecutes(t *testing.T) {
	out, pid, err := runFixture(t, "again", nil)
	if err != nil {
		t.Fatalf("%v:\n%s", err, out)
	}
	mustContain(t, out, "--- PASS: TestAloneFixture", "ppid="+strconv.Itoa(pid)+"\n")
}
