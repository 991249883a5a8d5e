package server

import (
	"fmt"
	"net/http"
)

// handleReload is POST /admin/reload (mounted only with
// Options.EnableAdmin): it triggers a background reload of one region
// through the registry — the same single-flight path SIGHUP takes — and
// returns immediately: 202 when one was started, 409 when one is already
// running. The region is the ?region= parameter, else the registry's
// sole region; a multi-region server without one is a 400. Registry
// errors map through statusForError: 404 for an unknown region, 501 for
// a region with nothing to reload from. Requests in flight — on the named
// region and on every other — keep serving the models they already
// resolved. Progress is observable via the region's model_version and
// region_model_load_failures_total on GET /metrics.
func (srv *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	region := r.URL.Query().Get("region")
	if region == "" {
		region = srv.reg.DefaultRegion()
	}
	if region == "" {
		http.Error(w, "region parameter required on a multi-region server", http.StatusBadRequest)
		return
	}
	started, err := srv.reg.TriggerReload(region, "admin")
	if err != nil {
		http.Error(w, err.Error(), statusForError(err))
		return
	}
	if !started {
		http.Error(w, "reload already in progress", http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, "reload of region %q started\n", region)
}
