//go:build exactref

package mcf

import (
	"testing"

	"repro/internal/topo"
)

// TestExactReferenceGenerated100 pins generated-100's exact optimum
// (0.727371) under r3plan's default traffic; it takes most of a minute,
// so only make exact-ref runs it.
func TestExactReferenceGenerated100(t *testing.T) {
	checkExactReference(t, topo.Generated(), 0.72737087882435625)
}
