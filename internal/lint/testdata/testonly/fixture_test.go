package fixture

import "testing"

func TestHook(t *testing.T) {
	Hook()
	(&counter{}).Zero()
	if Unused() != 2 || Recursive(3) != 0 {
		t.Fatal("fixture")
	}
}
