package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"udfdecorr/internal/algebra"
	"udfdecorr/internal/sqltypes"
)

// The rule sanitizer checks every rule firing against what any rule must
// preserve, so a wrong rule is named at the firing rather than by a wrong
// answer somewhere in the differential corpus.

// ruleObserver watches the rule engine for the sanitizer. It is test-only
// and nil in production (Sanitize installs it). Its functions must be safe
// for concurrent use.
type ruleObserver struct {
	// Fired runs after every rule firing with the node the rule matched
	// and its replacement.
	Fired func(rule string, before, after algebra.Rel)
	// PassCap runs when a fixpoint loop stops at maxRewritePasses without
	// converging.
	PassCap func(loop string)
}

var observer atomic.Pointer[ruleObserver]

func passCapReached(loop string) {
	if c := observer.Load(); c != nil {
		c.PassCap(loop)
	}
}

// checkFiring reports what a rule's replacement fails to preserve of the
// node it matched: the output columns (arity, names and qualifiers, and
// types, where KindNull is compatible with any type) and the free
// references, which may shrink but never grow. The rule sanitizer runs it
// after every firing.
func checkFiring(before, after algebra.Rel) error {
	bs, as := before.Schema(), after.Schema()
	if len(bs) != len(as) {
		return fmt.Errorf("arity %d became %d", len(bs), len(as))
	}
	for i := range bs {
		b, a := bs[i], as[i]
		if b.Qual != a.Qual || b.Name != a.Name {
			return fmt.Errorf("column %d: %s became %s", i, b, a)
		}
		if b.Type != a.Type && b.Type != sqltypes.KindNull && a.Type != sqltypes.KindNull {
			return fmt.Errorf("column %d (%s): type %v became %v", i, b, b.Type, a.Type)
		}
	}
	free := algebra.FreeRefs(before)
	for _, ref := range algebra.FreeRefs(after).Sorted() {
		if !free[ref] {
			return fmt.Errorf("new free reference %s", ref)
		}
	}
	return nil
}

// Sanitize installs the rule sanitizer: checkFiring after every firing, and
// reaching maxRewritePasses counts as a violation. It returns a function that
// removes it and lists the distinct violations seen. Test-only: TestMain
// installs it around m.Run and fails the run on any violation.
func Sanitize() (stop func() []string) {
	var mu sync.Mutex
	seen := map[string]bool{}
	record := func(v string) {
		mu.Lock()
		seen[v] = true
		mu.Unlock()
	}
	observer.Store(&ruleObserver{
		Fired: func(rule string, before, after algebra.Rel) {
			if err := checkFiring(before, after); err != nil {
				record(fmt.Sprintf("%s: %v, rewriting %s", rule, err, before.Describe()))
			}
		},
		PassCap: func(loop string) { record(loop + ": reached maxRewritePasses") },
	})
	return func() []string {
		observer.Store(nil)
		mu.Lock()
		defer mu.Unlock()
		out := make([]string, 0, len(seen))
		for v := range seen {
			out = append(out, v)
		}
		sort.Strings(out)
		return out
	}
}
