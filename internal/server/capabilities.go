package server

import (
	"net/http"

	"syncsim/internal/api"
	"syncsim/internal/core"
	"syncsim/internal/locks"
	"syncsim/internal/machine"
	"syncsim/internal/replay"
	"syncsim/internal/workload/suite"
)

// handleCapabilities serves GET /v1/capabilities: the service's accepted
// vocabulary — benchmarks, machine models, lock algorithms, consistency
// models, schedulers — plus whether a fitted prediction model is loaded.
// Clients (and the chaos soak) drive request generation from this instead
// of hard-coding name lists. It answers even while draining: it is
// metadata, not a job.
func (s *Server) handleCapabilities(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	resp := api.CapabilitiesResponse{
		Models: []string{
			core.ModelQueue.String(), core.ModelTTS.String(), core.ModelWO.String(),
		},
		Locks: []string{
			locks.Queue.String(), locks.TTS.String(),
			locks.QueueExact.String(), locks.TTSBackoff.String(),
		},
		Consistency: []string{
			machine.SeqConsistent.String(), machine.WeakOrdering.String(),
		},
		Schedulers: []string{machine.SchedCalendar.String()},
		Analyze: &api.AnalyzeCapability{
			Perturbations:    api.Perturbations(),
			DefaultThreshold: replay.DefaultThreshold,
		},
	}
	for _, b := range suite.All() {
		resp.Benchmarks = append(resp.Benchmarks, api.BenchmarkInfo{
			Name: b.Program.Name(),
			NCPU: b.Paper.NCPU,
		})
	}
	if s.predict != nil {
		resp.Predict = &api.PredictCapability{
			Cells:       len(s.predict.Cells),
			MinScale:    s.predict.MinScale(),
			MaxScale:    s.predict.MaxScale(),
			MaxErrBound: s.predict.MaxErrBound(),
			Modes:       []string{api.PredictAnalytic, api.PredictSimulate, api.PredictAuto},
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}
