package service

import (
	"encoding/json"
	"errors"
	"net/http"
)

// maxRequestBytes bounds one submission body. Netlists in this repo's
// universe are tens of kilobytes; 8 MiB leaves generous headroom while
// keeping a hostile client from ballooning the daemon.
const maxRequestBytes = 8 << 20

// Handler returns the service's HTTP API on a fresh mux:
//
//	POST   /v1/attacks             submit a job (202, or 200 on a cache hit)
//	GET    /v1/attacks             list known jobs
//	GET    /v1/attacks/{id}        job status
//	GET    /v1/attacks/{id}/result recovered key + stats (404 until terminal)
//	GET    /v1/attacks/{id}/trace  per-job Chrome-trace span tree
//	GET    /v1/attacks/{id}/events live SSE lifecycle/progress stream
//	                               (Last-Event-ID resume; ends after done)
//	DELETE /v1/attacks/{id}        withdraw the job (cancels the execution
//	                               when it was the last interested job)
//	GET    /healthz                liveness
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/attacks", s.handleSubmit)
	mux.HandleFunc("GET /v1/attacks", s.handleList)
	mux.HandleFunc("GET /v1/attacks/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/attacks/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/attacks/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/attacks/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/attacks/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// httpStatus maps a JobError's kind to its canonical HTTP status.
func httpStatus(kind ErrorKind) int {
	switch kind {
	case KindInvalid:
		return http.StatusBadRequest
	case KindQueueFull:
		return http.StatusTooManyRequests
	case KindUnavailable:
		return http.StatusServiceUnavailable
	case KindNotFound:
		return http.StatusNotFound
	case KindPanic:
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}

type errorBody struct {
	Error string    `json:"error"`
	Kind  ErrorKind `json:"kind"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	var je *JobError
	if errors.As(err, &je) {
		writeJSON(w, httpStatus(je.Kind), errorBody{Error: je.Error(), Kind: je.Kind})
		return
	}
	writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	var req AttackRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, errInvalid("decoding request body: %v", err))
		return
	}
	job, err := s.Submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	st := job.snapshot()
	// A cache hit is already terminal: answer 200 with the final state so
	// the client can fetch the result without polling. Fresh admissions
	// are 202 Accepted.
	status := http.StatusAccepted
	if st.State.Terminal() {
		status = http.StatusOK
	}
	w.Header().Set("Location", "/v1/attacks/"+job.ID())
	writeJSON(w, status, st)
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.List()})
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	st, res, finished, err := s.Outcome(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if !finished {
		writeJSON(w, http.StatusConflict, errorBody{
			Error: "job " + st.ID + " is " + string(st.State) + "; result not available yet",
			Kind:  "not_finished",
		})
		return
	}
	if res == nil {
		// Terminal without a full result: partial, failed or canceled.
		// Surface the status document with an error-ish code so scripted
		// clients notice, but keep the structure readable.
		status := http.StatusUnprocessableEntity
		if st.ErrorKind != "" {
			status = httpStatus(st.ErrorKind)
		}
		writeJSON(w, status, st)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": st, "result": res})
}

func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	trace, err := s.Trace(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(trace)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
