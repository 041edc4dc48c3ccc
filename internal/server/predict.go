package server

import (
	"fmt"
	"net/http"

	"syncsim/internal/api"
)

// defaultPredictMaxError is the auto mode's relative-error tolerance when
// the request leaves MaxError zero: cells whose calibrated bound is worse
// fall back to cycle-exact simulation.
const defaultPredictMaxError = 0.15

// predictJob is a validated PredictRequest: the canonicalised request plus
// the exact simulation job the fallback path would run.
type predictJob struct {
	req api.PredictRequest
	sim simJob
}

// normalizePredict validates a predict request and resolves the model cell
// to the lock/consistency pair its fallback simulation uses.
func normalizePredict(req api.PredictRequest) (predictJob, error) {
	switch req.Mode {
	case "", api.PredictAuto:
		req.Mode = api.PredictAuto
	case api.PredictAnalytic, api.PredictSimulate:
	default:
		return predictJob{}, fmt.Errorf("unknown mode %q (want %s, %s, %s)",
			req.Mode, api.PredictAnalytic, api.PredictSimulate, api.PredictAuto)
	}
	if req.MaxError < 0 {
		return predictJob{}, fmt.Errorf("negative max_error %v", req.MaxError)
	}
	if req.MaxError == 0 {
		req.MaxError = defaultPredictMaxError
	}

	var lock, cons string
	switch req.Model {
	case "", "queue":
		req.Model = "queue"
		lock, cons = "queue", "sc"
	case "tts":
		lock, cons = "tts", "sc"
	case "wo":
		lock, cons = "queue", "wo"
	default:
		return predictJob{}, fmt.Errorf("unknown model %q (want queue, tts, wo)", req.Model)
	}

	sim, err := normalizeSim(api.SimRequest{
		Bench: req.Bench,
		Scale: req.Scale,
		Seed:  req.Seed,
		Lock:  lock,
		Cons:  cons,
	})
	if err != nil {
		return predictJob{}, err
	}
	req.Bench = sim.req.Bench
	req.Scale = sim.req.Scale
	return predictJob{req: req, sim: sim}, nil
}

// handlePredict serves POST /v1/predict. The analytic path is pure
// arithmetic on the fitted model — it never acquires a worker slot, never
// touches the admission queue, and leaves every job counter unchanged
// (pinned by TestPredictAnalyticBypassesQueue). The fallback path is
// exactly /v1/sim's machinery: result cache, single-flight coalescing,
// admission queue, watchdog.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	done, ok := s.admitJobRequest(w, r)
	if !ok {
		return
	}
	defer done()

	var req api.PredictRequest
	if !DecodeBody(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	job, err := normalizePredict(req)
	if err != nil {
		s.writeError(w, r, fmt.Errorf("%w: %w", errBadRequest, err))
		return
	}

	var pred *api.Prediction
	if p, perr := s.predict.Predict(job.req.Bench, job.req.Model, job.req.Scale); perr == nil {
		pred = &p
	}

	analytic := false
	switch job.req.Mode {
	case api.PredictAnalytic:
		if pred == nil {
			s.writeError(w, r, fmt.Errorf("%w: %s/%s", errNoModel, job.req.Bench, job.req.Model))
			return
		}
		analytic = true
	case api.PredictAuto:
		// Trust the fast path only when its published bound meets the
		// caller's tolerance AND the scale is inside the calibrated
		// envelope; anything else earns a cycle-exact run.
		analytic = pred != nil && pred.ErrBound <= job.req.MaxError && !pred.Extrapolated
	}

	if analytic {
		s.predAnalytic.Inc()
		WriteJSON(w, http.StatusOK, api.PredictResponse{
			Request:    job.req,
			Source:     "analytic",
			Prediction: pred,
			Served:     "model",
		})
		return
	}

	s.predFallback.Inc()
	payload, served, err := s.simResult(r, job.sim)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	WriteJSON(w, http.StatusOK, api.PredictResponse{
		Request:    job.req,
		Source:     "simulate",
		Prediction: pred,
		Sim:        payload,
		Served:     served,
	})
}
