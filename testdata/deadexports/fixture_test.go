package deadexports

import "testing"

func TestStale(t *testing.T) {
	if (&Box{Size: 2}).Stale() != 2 {
		t.Fatal("Stale")
	}
}
