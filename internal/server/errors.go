package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"

	"syncsim/internal/api"
	"syncsim/internal/flight"
	"syncsim/internal/machine"
	"syncsim/internal/workload/suite"
)

// Sentinel errors of the job layer. Everything a handler can fail with is
// classified by exactly one mapping (classify) so the error→status
// taxonomy lives in one place and is pinned by TestErrorTaxonomy.
var (
	// errBadRequest wraps request decoding and validation failures → 400.
	errBadRequest = errors.New("bad request")
	// errWedged is the watchdog's verdict: the job's scheduler heartbeat
	// stalled and the job was aborted via its context → 504.
	errWedged = errors.New("job wedged: scheduler heartbeat stalled")
	// errNoModel: /v1/predict in analytic mode asked for a cell the loaded
	// model has not fitted (or no model is loaded at all) → 422.
	errNoModel = errors.New("no fitted prediction model for this cell")
)

// httpError is the resolved HTTP rendering of a job failure.
type httpError struct {
	status int
	msg    string // public message; never contains a stack or internals
	// retryAfter: send the adaptive Retry-After hint (429/503 shedding).
	retryAfter bool
	// incident is the opaque incident ID minted for panics; the stack goes
	// to the server log under this ID, never onto the wire.
	incident string
}

// classify maps a job error onto HTTP semantics. It is THE error taxonomy:
//
//	panic (any layer)            → 500 + opaque incident ID
//	queue full / load shed       → 429 + Retry-After
//	body too large               → 413
//	unknown benchmark            → 400
//	invalid request or config    → 400
//	invariant violation          → 422 (the simulation itself is unsound)
//	no fitted predict cell       → 422 (analytic mode without a model)
//	watchdog abort (wedged job)  → 504
//	job timeout                  → 504
//	cancellation (drain, storm)  → 503 + Retry-After
//	anything else                → 500
func classify(err error) httpError {
	var pe *flight.PanicError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &pe):
		id := newIncidentID()
		return httpError{
			status:   http.StatusInternalServerError,
			msg:      fmt.Sprintf("internal error (incident %s)", id),
			incident: id,
		}
	case errors.Is(err, errBusy):
		return httpError{status: http.StatusTooManyRequests, msg: "server at capacity, retry later", retryAfter: true}
	case errors.As(err, &mbe):
		return httpError{status: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)}
	case errors.Is(err, suite.ErrUnknownBenchmark), errors.Is(err, errBadRequest):
		return httpError{status: http.StatusBadRequest, msg: err.Error()}
	case errors.Is(err, machine.ErrInvariant), errors.Is(err, errNoModel):
		return httpError{status: http.StatusUnprocessableEntity, msg: err.Error()}
	case errors.Is(err, errWedged):
		return httpError{status: http.StatusGatewayTimeout, msg: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return httpError{status: http.StatusGatewayTimeout, msg: "job timed out"}
	case errors.Is(err, context.Canceled):
		return httpError{status: http.StatusServiceUnavailable, msg: "job cancelled (server draining or clients gone)", retryAfter: true}
	default:
		return httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
}

// newIncidentID mints a short opaque ID correlating a 500 response with
// the stack trace in the server log.
func newIncidentID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "000000000000" // crypto/rand failure; keep serving
	}
	return hex.EncodeToString(b[:])
}

// writeError renders a job failure: classify once, log panics with their
// incident ID and stack, attach the adaptive Retry-After hint to shedding
// statuses, and keep internals off the wire.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	he := classify(err)
	if he.incident != "" {
		s.panicked.Inc()
		var pe *flight.PanicError
		errors.As(err, &pe)
		s.logf("incident %s: panic in job %q: %v\n%s", he.incident, pe.Job, pe.Value, pe.Stack)
	}
	if r.Context().Err() != nil {
		return // the client is gone; there is no one to write to
	}
	if he.status == http.StatusTooManyRequests {
		s.rejected.Inc()
	}
	if he.retryAfter {
		w.Header().Set(api.HeaderRetryAfter, s.retryAfterHint())
	}
	if he.incident != "" {
		w.Header().Set(api.HeaderIncidentID, he.incident)
	}
	http.Error(w, he.msg, he.status)
}
