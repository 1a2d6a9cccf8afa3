package knobs

import "testing"

func TestRun(t *testing.T) {
	if (&Config{TestOnly: 1}).Run() == 0 {
		t.Fatal("Run")
	}
}
