// Package testsupport holds what the module's tests share. Only _test.go
// files import it.
package testsupport

import (
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// aloneEnv marks a process that Alone started; its value is the name of the
// one test the process runs. Only Alone reads it.
const aloneEnv = "REPRO_TESTSUPPORT_ALONE"

// Alone runs the calling test by itself, in a process of its own, and
// reports whether the caller must return at once. A test that reads a
// process-wide quantity — runtime.ReadMemStats, runtime.NumGoroutine,
// testing.AllocsPerRun — calls it before the first such read:
//
//	func TestBudget(t *testing.T) {
//		if testsupport.Alone(t) {
//			return
//		}
//		...
//	}
//
// In the test binary's own process such a reading sees every other test as
// well: links still closing, dropped clusters not yet collected, pool
// workers, other Ps' sync.Pool caches. So in that process Alone re-executes
// the binary with -test.run '^Name$' and -test.count=1 and returns true,
// reporting the child's output, failure or skip as the test's own, and each
// subtest's on a subtest of the same name. The child gets the parent's
// environment (CP_WORKERS among it), GOMAXPROCS set to the parent's
// runtime.GOMAXPROCS(0), -test.short when it is set and the test's
// remaining deadline; it gets no coverage or profile flag. The child always
// runs with -test.v, which is how the parent reads its results; its log
// shows, as any test's log does, under -test.v or on failure. A race binary
// re-executes itself, so the child runs under the race detector too.
//
// In the child, Alone returns false and the test body runs. A process that
// Alone started never starts another.
//
//cplint:allow testonly TestProcessWideReadsRunAlone makes every test that reads a process-wide quantity call it
func Alone(t *testing.T) bool {
	t.Helper()
	if _, ok := os.LookupEnv(aloneEnv); ok {
		return false
	}
	args := []string{"-test.run=^" + regexp.QuoteMeta(t.Name()) + "$", "-test.count=1", "-test.v=true"}
	if testing.Short() {
		args = append(args, "-test.short")
	}
	if d, ok := t.Deadline(); ok {
		args = append(args, "-test.timeout="+time.Until(d).String())
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), aloneEnv+"="+t.Name(), "GOMAXPROCS="+strconv.Itoa(runtime.GOMAXPROCS(0)))
	out, err := cmd.CombinedOutput()
	readRun(string(out)).report(t, t.Name(), err)
	return true
}

// childRun is a -test.v run read back: each test's result (PASS, FAIL or
// SKIP) and log, by full name, and the order the tests started in.
type childRun struct {
	order   []string
	results map[string]string
	logs    map[string][]string
}

func readRun(out string) childRun {
	r := childRun{results: map[string]string{}, logs: map[string][]string{}}
	cur := ""
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "=== ") && len(line) > 10 { // RUN, PAUSE, CONT, NAME
			cur = line[10:]
			if _, seen := r.logs[cur]; !seen {
				r.order = append(r.order, cur)
				r.logs[cur] = nil
			}
			continue
		}
		if line == "PASS" || line == "FAIL" {
			continue
		}
		if res, rest, ok := strings.Cut(strings.TrimLeft(line, " "), ": "); ok && strings.HasPrefix(res, "--- ") {
			if name, _, ok := strings.Cut(rest, " ("); ok {
				cur = name
				r.results[name] = res[4:]
				continue
			}
		}
		r.logs[cur] = append(r.logs[cur], strings.TrimPrefix(line, "    "))
	}
	return r
}

// report gives t the result and log of the child's test name, after
// replaying each of name's subtests on a subtest of t. exit is how the child
// exited, nil for a subtest.
func (r childRun) report(t *testing.T, name string, exit error) {
	t.Helper()
	for _, sub := range r.order {
		if rest, ok := strings.CutPrefix(sub, name+"/"); ok && !strings.Contains(rest, "/") {
			t.Run(rest, func(t *testing.T) { r.report(t, sub, nil) })
		}
	}
	log := strings.Join(r.logs[name], "\n")
	switch res := r.results[name]; {
	case res == "SKIP" && exit == nil:
		t.Skip("skipped alone in its own process:\n" + log)
	case res == "PASS" && exit == nil:
		if log != "" {
			t.Log("ran alone in its own process:\n" + log)
		}
	default:
		if exit != nil {
			log = strings.TrimSpace(exit.Error() + "\n" + log)
		}
		t.Fatal("failed alone in its own process:\n" + log)
	}
}
