package engine

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"udfdecorr/internal/core"
)

// TestMain runs every test under the rule sanitizer.
func TestMain(m *testing.M) {
	stop := core.Sanitize()
	code := m.Run()
	if v := stop(); len(v) > 0 {
		fmt.Fprintf(os.Stderr, "rule sanitizer: %d violation(s):\n  %s\n", len(v), strings.Join(v, "\n  "))
		code = 1
	}
	os.Exit(code)
}
