package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"ivn/internal/ivnsim/runspec"
)

// maxSpecBytes bounds a POST body; a RunSpec is a handful of fields and
// anything larger is a client error, not a bigger run.
const maxSpecBytes = 1 << 16

// NewHandler wires the service API over m:
//
//	POST   /v1/runs            submit a RunSpec        → 202 Status (409-free: cache hits are 202 too)
//	GET    /v1/runs/{id}       status, result when done
//	GET    /v1/runs/{id}/result the raw result document alone
//	GET    /v1/runs/{id}/trace  the JSONL event stream (traced specs)
//	DELETE /v1/runs/{id}       cancel                  → 202 Status
//	GET    /metrics            sorted "name value" text
//	GET    /healthz            liveness
//
// The result bytes inside GET /v1/runs/{id} and at /result are exactly
// the bytes `ivnsim -json` prints for the same spec — the envelope is
// spliced by hand rather than re-marshaled, because encoding/json
// compacts embedded documents and would silently break byte-identity.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
			return
		}
		if len(body) > maxSpecBytes {
			httpError(w, http.StatusBadRequest, "spec document too large")
			return
		}
		spec, err := runspec.ParseJSON(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		// ?shards=N requests sharded execution. A query parameter, not a
		// spec field, because fan-out is transport: the job's key, cache
		// entry and result bytes are the same at any N.
		var job *Job
		if raw := r.URL.Query().Get("shards"); raw != "" {
			shards, perr := strconv.Atoi(raw)
			if perr != nil {
				httpError(w, http.StatusBadRequest, fmt.Sprintf("bad shards %q: %v", raw, perr))
				return
			}
			job, err = m.SubmitSharded(spec, shards)
		} else {
			job, err = m.Submit(spec)
		}
		switch {
		case errors.Is(err, ErrQueueFull):
			httpError(w, http.StatusTooManyRequests, err.Error())
			return
		case errors.Is(err, ErrClosed):
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		case err != nil:
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		writeStatus(w, http.StatusAccepted, job.Status())
	})

	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, ErrNotFound.Error())
			return
		}
		st := job.Status()
		res, done := job.Result()
		if !done {
			writeStatus(w, http.StatusOK, st)
			return
		}
		meta, err := json.Marshal(st)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		// Splice the result document into the envelope verbatim:
		// {"id":...,"state":"done",...,"result":<RenderJSON bytes>}
		var buf bytes.Buffer
		buf.Write(meta[:len(meta)-1]) // drop the closing brace
		buf.WriteString(`,"result":`)
		buf.Write(bytes.TrimSuffix(res, []byte("\n")))
		buf.WriteString("}\n")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = buf.WriteTo(w)
	})

	mux.HandleFunc("GET /v1/runs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, ErrNotFound.Error())
			return
		}
		res, done := job.Result()
		if !done {
			httpError(w, http.StatusConflict, fmt.Sprintf("job %s is %s, not done", job.ID(), job.Status().State))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(res)
	})

	mux.HandleFunc("GET /v1/runs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		job, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, ErrNotFound.Error())
			return
		}
		trace, ok := job.Trace()
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Sprintf("job %s has no trace (spec untraced or job not done)", job.ID()))
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(trace)
	})

	mux.HandleFunc("DELETE /v1/runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, err := m.Cancel(id); err != nil {
			httpError(w, http.StatusNotFound, err.Error())
			return
		}
		// A burst of newer terminal jobs may have evicted it meanwhile.
		job, ok := m.Get(id)
		if !ok {
			httpError(w, http.StatusNotFound, ErrNotFound.Error())
			return
		}
		writeStatus(w, http.StatusAccepted, job.Status())
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = m.Metrics().WriteText(w)
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})

	return mux
}

// writeStatus emits a Status document with the given HTTP code.
func writeStatus(w http.ResponseWriter, code int, st Status) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(st)
}

// httpError emits {"error": msg} with the given code.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(map[string]string{"error": msg})
}
