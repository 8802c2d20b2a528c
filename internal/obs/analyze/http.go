package analyze

import (
	"net/http"

	"parms/internal/obs"
)

// Handler serves the live analysis of an observer as the /insight
// endpoint of the introspection server (obs.Serve takes it as an
// opaque http.Handler so obs does not depend on this package). Each
// request snapshots the tracer and re-runs Analyze, so mid-run scrapes
// see a consistent prefix of the run. `?format=text` switches to the
// human-readable rendering.
func Handler(o *obs.Observer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rep := Analyze(FromObserver(o))
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			rep.Print(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := rep.WriteJSON(w); err != nil {
			// Too late for an HTTP error status; the connection is the
			// only place left to signal failure.
			return
		}
	})
}
