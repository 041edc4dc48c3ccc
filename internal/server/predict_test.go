package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"syncsim/internal/api"
	"syncsim/internal/engine"
	"syncsim/internal/metrics"
	"syncsim/internal/predict"
)

// testModel hand-builds a tiny fitted model: one Qsort/queue cell with a
// 5% bound, calibrated (nominally) at scales 0.01-0.02. The parameter
// values are plausible but arbitrary — these tests pin the serving
// machinery, not the fit.
func testModel() *predict.Model {
	return &predict.Model{
		Version: predict.ModelVersion,
		Scales:  []float64{0.01, 0.02},
		Seeds:   []int64{1, 2},
		Cells: map[string]*predict.Cell{
			"Qsort/queue": {
				Bench: "Qsort", Model: "queue", NCPU: 12,
				Work:      predict.LinFit{B: 2.2e8},
				MissStall: predict.LinFit{B: 1.5e7},
				BusBusy:   predict.LinFit{B: 1.2e9},
				Transfers: predict.LinFit{B: 6e4},
				Straggler: 1.15,
				MaxErr:    0.01, MeanErr: 0.005, ErrBound: 0.05,
			},
		},
	}
}

// postPredict POSTs a /v1/predict body and decodes the response.
func postPredict(t *testing.T, ts *httptest.Server, body string) (api.PredictResponse, *http.Response) {
	t.Helper()
	var out api.PredictResponse
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/predict: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return out, resp
}

// TestPredictAnalyticBypassesQueue is the acceptance check for the fast
// path: an analytic answer must come straight from the fitted model —
// no admission-queue slot, no engine run, no job counters. The execution
// back end is stubbed to fail the test outright if anything reaches it.
func TestPredictAnalyticBypassesQueue(t *testing.T) {
	s := New(Config{Workers: 1, Predict: testModel(), Logf: t.Logf})
	defer s.Close()
	s.execTasks = func(ctx context.Context, tasks []engine.Task) ([]engine.TaskResult, metrics.SuiteReport, error) {
		t.Error("analytic prediction executed a machine run")
		return nil, metrics.SuiteReport{}, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	out, resp := postPredict(t, ts, `{"bench":"Qsort","model":"queue","scale":0.015,"mode":"analytic"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if out.Source != "analytic" || out.Served != "model" {
		t.Errorf("source/served = %q/%q, want analytic/model", out.Source, out.Served)
	}
	if out.Sim != nil {
		t.Error("analytic response carries a simulation payload")
	}
	if out.Prediction == nil || out.Prediction.TTS <= 0 {
		t.Fatalf("no usable prediction in response: %+v", out.Prediction)
	}
	if out.Prediction.ErrBound != 0.05 {
		t.Errorf("err bound = %v, want the cell's published 0.05", out.Prediction.ErrBound)
	}
	if out.Prediction.Extrapolated {
		t.Error("scale 0.015 flagged extrapolated inside the [0.01, 0.02] envelope")
	}

	snap := s.reg.Snapshot()
	for _, counter := range []string{
		"jobs_accepted", "jobs_completed", "jobs_failed",
		"requests_coalesced", "result_cache_hits", "predict_fallback",
	} {
		if n := snap.Counters[counter]; n != 0 {
			t.Errorf("%s = %d after an analytic answer, want 0", counter, n)
		}
	}
	if n := snap.Counters["predict_analytic"]; n != 1 {
		t.Errorf("predict_analytic = %d, want 1", n)
	}
}

// TestPredictFallbackSimulates pins the slow path: simulate mode (and auto
// mode with a tolerance the cell cannot meet) runs the cycle-exact engine
// through the normal admission machinery and returns the full simulation
// payload alongside the model's (untrusted) prediction.
func TestPredictFallbackSimulates(t *testing.T) {
	s := New(Config{Workers: 1, Predict: testModel(), ResultCacheSize: -1, Logf: t.Logf})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	out, resp := postPredict(t, ts, `{"bench":"Qsort","model":"queue","scale":0.01,"mode":"simulate"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if out.Source != "simulate" || out.Served != "run" {
		t.Errorf("source/served = %q/%q, want simulate/run", out.Source, out.Served)
	}
	if out.Sim == nil || out.Sim.Result == nil || out.Sim.Result.RunTime == 0 {
		t.Fatalf("fallback carried no simulation result: %+v", out.Sim)
	}
	if out.Prediction == nil {
		t.Error("fallback dropped the model's prediction")
	}

	// Auto with an unmeetable tolerance (bound 0.05 > 0.01): same path.
	out, resp = postPredict(t, ts, `{"bench":"Qsort","model":"queue","scale":0.01,"max_error":0.01}`)
	if resp.StatusCode != http.StatusOK || out.Source != "simulate" {
		t.Errorf("strict auto: status/source = %d/%q, want 200/simulate", resp.StatusCode, out.Source)
	}

	snap := s.reg.Snapshot()
	if n := snap.Counters["jobs_accepted"]; n != 2 {
		t.Errorf("jobs_accepted = %d, want 2 (both requests simulated)", n)
	}
	if n := snap.Counters["predict_fallback"]; n != 2 {
		t.Errorf("predict_fallback = %d, want 2", n)
	}
}

// TestPredictAutoTrustsTightBound: auto mode inside the envelope with the
// default tolerance accepts the model's 5% bound and answers analytically.
func TestPredictAutoTrustsTightBound(t *testing.T) {
	s := New(Config{Workers: 1, Predict: testModel(), Logf: t.Logf})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	out, resp := postPredict(t, ts, `{"bench":"Qsort","model":"queue","scale":0.012}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if out.Source != "analytic" {
		t.Errorf("source = %q, want analytic under the default tolerance", out.Source)
	}

	// Outside the calibrated envelope the bound is not backed by data:
	// auto must fall back even though the tolerance is met on paper.
	out, resp = postPredict(t, ts, `{"bench":"Qsort","model":"queue","scale":0.2}`)
	if resp.StatusCode != http.StatusOK || out.Source != "simulate" {
		t.Errorf("extrapolated auto: status/source = %d/%q, want 200/simulate", resp.StatusCode, out.Source)
	}
	if out.Prediction == nil || !out.Prediction.Extrapolated {
		t.Errorf("extrapolated prediction not flagged: %+v", out.Prediction)
	}
}

// TestPredictErrors pins the endpoint's failure taxonomy: analytic mode
// without a fitted cell is 422 (the caller asked for something the model
// cannot honestly answer), bad modes/models/benches are 400.
func TestPredictErrors(t *testing.T) {
	s := New(Config{Workers: 1, Predict: testModel(), Logf: t.Logf})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"no fitted cell", `{"bench":"Grav","model":"queue","scale":0.01,"mode":"analytic"}`, http.StatusUnprocessableEntity},
		{"unknown mode", `{"bench":"Qsort","model":"queue","scale":0.01,"mode":"psychic"}`, http.StatusBadRequest},
		{"unknown model", `{"bench":"Qsort","model":"hle","scale":0.01}`, http.StatusBadRequest},
		{"unknown bench", `{"bench":"Nope","model":"queue","scale":0.01}`, http.StatusBadRequest},
		{"negative tolerance", `{"bench":"Qsort","model":"queue","scale":0.01,"max_error":-1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, resp := postPredict(t, ts, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

// TestPredictNoModelLoaded: with no -predict-model, analytic mode is 422
// and auto mode silently simulates — the endpoint stays useful.
func TestPredictNoModelLoaded(t *testing.T) {
	s := New(Config{Workers: 1, Logf: t.Logf})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, resp := postPredict(t, ts, `{"bench":"Qsort","model":"queue","scale":0.01,"mode":"analytic"}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("analytic without a model: status = %d, want 422", resp.StatusCode)
	}
	out, resp := postPredict(t, ts, `{"bench":"Qsort","model":"queue","scale":0.01}`)
	if resp.StatusCode != http.StatusOK || out.Source != "simulate" {
		t.Errorf("auto without a model: status/source = %d/%q, want 200/simulate", resp.StatusCode, out.Source)
	}
	if out.Prediction != nil {
		t.Errorf("no model loaded but a prediction came back: %+v", out.Prediction)
	}
}

// TestCapabilities pins the vocabulary endpoint: the full accepted name
// lists, GET-only, predict envelope present exactly when a model is
// loaded, and availability while draining.
func TestCapabilities(t *testing.T) {
	s := New(Config{Workers: 1, Predict: testModel(), Logf: t.Logf})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() (api.CapabilitiesResponse, *http.Response) {
		t.Helper()
		var out api.CapabilitiesResponse
		resp, err := http.Get(ts.URL + "/v1/capabilities")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return out, resp
	}

	caps, resp := get()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if len(caps.Benchmarks) != 6 || caps.Benchmarks[0].Name != "Grav" || caps.Benchmarks[0].NCPU != 10 {
		t.Errorf("benchmarks = %+v, want the six suite entries led by Grav/10", caps.Benchmarks)
	}
	if len(caps.Models) != 3 || len(caps.Locks) != 4 || len(caps.Consistency) != 2 {
		t.Errorf("vocabulary sizes = %d/%d/%d, want 3/4/2 models/locks/cons",
			len(caps.Models), len(caps.Locks), len(caps.Consistency))
	}
	if want := []string{"calendar"}; !reflect.DeepEqual(caps.Schedulers, want) {
		t.Errorf("schedulers = %v, want %v", caps.Schedulers, want)
	}
	if caps.Predict == nil || caps.Predict.Cells != 1 || caps.Predict.MaxErrBound != 0.05 {
		t.Errorf("predict capability = %+v, want 1 cell with bound 0.05", caps.Predict)
	}

	if resp, err := http.Post(ts.URL+"/v1/capabilities", "application/json", strings.NewReader("{}")); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST: status = %d, want 405", resp.StatusCode)
		}
	}

	// Metadata stays available while draining (jobs do not).
	s.BeginDrain()
	if _, resp := get(); resp.StatusCode != http.StatusOK {
		t.Errorf("draining: status = %d, want 200", resp.StatusCode)
	}

	// And without a loaded model the predict envelope is absent.
	s2 := New(Config{Workers: 1})
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var caps2 api.CapabilitiesResponse
	r2, err := http.Get(ts2.URL + "/v1/capabilities")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := json.NewDecoder(r2.Body).Decode(&caps2); err != nil {
		t.Fatal(err)
	}
	if caps2.Predict != nil {
		t.Errorf("no model loaded but predict capability advertised: %+v", caps2.Predict)
	}
}
