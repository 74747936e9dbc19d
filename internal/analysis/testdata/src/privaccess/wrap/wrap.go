// Package wrap hides an uninstrumented access behind a cross-package
// helper — exactly the escape an intra-package analysis cannot see and
// the call graph exists to close.
package wrap

import "privstm/internal/analysis/testdata/src/privaccess/stmlib"

// Free performs an uninstrumented store on behalf of its caller. Legal
// from plain code holding a private extent; a privatization-safety
// violation when reached from inside a transaction.
func Free(p stmlib.Private) {
	p.Store(0, 0)
}
