package server

import (
	"strings"
	"testing"
	"time"

	"wheretime/internal/harness"
	"wheretime/internal/trace"
)

// FuzzCellSpecJSON hammers the request decoder: whatever the bytes, a
// malformed spec must produce an error (for a 400), never a panic —
// and decoding must never touch the trace arenas, so a garbage
// request can't cost a recording allocation before it is rejected.
func FuzzCellSpecJSON(f *testing.F) {
	f.Add(`{"kind":"micro","system":"B","query":"SRS"}`)
	f.Add(`{"kind":"micro","system":"D","query":"IXJ","selectivity":0.02,"recordSize":200,"l2kb":1024,"timeoutMs":100}`)
	f.Add(`{"kind":"micro","system":"A","query":"IXJ","selectivity":0.02,"recordSize":200,"l2kb":1024,"timeoutMs":100}`) // System A has no index
	f.Add(`{"kind":"tpcd","system":"D","btb":64}`)
	f.Add(`{"kind":"tpcc","system":"C","txns":400}`)
	f.Add(``)
	f.Add(`null`)
	f.Add(`[]`)
	f.Add(`{"kind":"micro","system":"B","query":"SRS"}{"kind":"micro"}`)
	f.Add(`{"kind":"micro","system":"B","query":"SRS","selectivity":1e308}`)
	f.Add(`{"kind":"tpcc","system":"C","txns":-1}`)
	f.Add(strings.Repeat(`{"kind":`, 1000))

	opts := testOpts()
	f.Fuzz(func(t *testing.T, body string) {
		c0, e0, b0 := trace.LiveBuffers()
		spec, timeout, err := decodeSpec(opts, time.Minute, strings.NewReader(body))
		if err == nil {
			// Accepted specs must be internally coherent: a resolvable
			// platform, a positive bounded deadline and a pair the
			// harness runs.
			if timeout <= 0 || timeout > time.Minute {
				t.Fatalf("accepted timeout %v out of (0, 1m]", timeout)
			}
			if verr := spec.Config.Validate(); verr != nil {
				t.Fatalf("accepted spec with invalid platform: %v", verr)
			}
			if spec.Kind == harness.CellMicro && !harness.ValidMicro(spec.System, spec.Query) {
				t.Fatalf("accepted %s, which the harness does not run", spec)
			}
		}
		if c, e, b := trace.LiveBuffers(); c != c0 || e != e0 || b != b0 {
			t.Fatalf("decode touched trace arenas: chunks %d->%d encBufs %d->%d blocks %d->%d",
				c0, c, e0, e, b0, b)
		}
	})
}
