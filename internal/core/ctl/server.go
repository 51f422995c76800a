package ctl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// The HTTP surface, stdlib-only JSON over five routes:
//
//	POST /v1/write   {"owner": "...", "ops": [Op...]}         -> WriteResponse
//	GET  /v1/read    ?kind=vdevs|snapshots|stats|health|lint|prove|fuse|ports|port_health|dump&vdev=&owner= -> ReadResult
//	GET  /v1/stats                                            -> {"vdevs": [VDevStats...]}
//	GET  /v1/health  [?vdev=]                                 -> ReadResponse (health only)
//	GET  /v1/lint    [?vdev=]                                 -> ReadResponse (verifier findings)
//	GET  /v1/events  ?since=N [&wait=seconds]                 -> EventsResponse (long poll)
//
// Every write is a WriteBatch — one op is a batch of one — so remote writes
// get the same atomicity as local ones.

// WriteRequest is the body of POST /v1/write. A non-empty RequestID makes
// the write idempotent: a retry carrying the same ID replays the original
// outcome instead of applying the ops again.
type WriteRequest struct {
	Owner     string `json:"owner"`
	RequestID string `json:"request_id,omitempty"`
	Ops       []Op   `json:"ops"`
}

// WriteResponse carries per-op results, or the structured error that rolled
// the batch back.
type WriteResponse struct {
	Results []Result `json:"results,omitempty"`
	Error   *Error   `json:"error,omitempty"`
}

// ReadResponse is the body of GET /v1/read.
type ReadResponse struct {
	Result *ReadResult `json:"result,omitempty"`
	Error  *Error      `json:"error,omitempty"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	VDevs []statsEntry `json:"vdevs"`
}

// statsEntry mirrors dpmu.VDevStats with JSON tags.
type statsEntry struct {
	VDev    string       `json:"vdev"`
	Owner   string       `json:"owner,omitempty"`
	Packets uint64       `json:"packets"`
	Bytes   uint64       `json:"bytes"`
	Tables  []tableEntry `json:"tables,omitempty"`
}

type tableEntry struct {
	Table   string `json:"table"`
	Hits    int64  `json:"hits"`
	Misses  int64  `json:"misses"`
	Entries int    `json:"entries"`
}

// EventsResponse is the body of GET /v1/events. Next is the cursor to pass
// as ?since= on the next poll (unchanged when the poll timed out empty).
// Head is the seq of the newest event this server instance has published; a
// Head below the ?since= the client sent means the server restarted (seq
// restarts at 0) and the cursor is from the previous incarnation — Next is
// then reset to 0 so the follower replays the new instance's buffer instead
// of silently waiting for the new seq to catch up with the stale cursor.
type EventsResponse struct {
	Events []Event `json:"events"`
	Next   int64   `json:"next"`
	Head   int64   `json:"head"`
}

// maxWriteBody caps a /v1/write request body at 4 MiB, gRPC's default
// maximum message size. A larger body is refused whole: none of its ops
// apply.
const maxWriteBody = 4 << 20

// maxWait bounds the /v1/events long poll.
const maxWait = 30 * time.Second

// NewServeMux returns the management API handler for a control plane.
func NewServeMux(c *Ctl) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/write", c.handleWrite)
	mux.HandleFunc("/v1/read", c.handleRead)
	mux.HandleFunc("/v1/stats", c.handleStats)
	mux.HandleFunc("/v1/health", c.handleHealth)
	mux.HandleFunc("/v1/lint", c.handleLint)
	mux.HandleFunc("/v1/events", c.handleEvents)
	return mux
}

// httpStatus maps error codes onto HTTP statuses.
func httpStatus(code Code) int {
	switch code {
	case CodeNotFound:
		return http.StatusNotFound
	case CodePermissionDenied:
		return http.StatusForbidden
	case CodeExhausted:
		return http.StatusTooManyRequests
	case CodeAlreadyExists:
		return http.StatusConflict
	case CodeInternal:
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func (c *Ctl) handleWrite(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxWriteBody))
	if err != nil {
		e := invalidf("reading request body: %v", err)
		if errors.As(err, new(*http.MaxBytesError)) {
			e = &Error{Code: CodeExhausted, Op: -1, Msg: fmt.Sprintf("request body exceeds %d bytes", maxWriteBody)}
		}
		writeJSON(w, httpStatus(e.Code), WriteResponse{Error: e})
		return
	}
	var req WriteRequest
	if err := json.Unmarshal(body, &req); err != nil {
		e := invalidf("bad request body: %v", err)
		writeJSON(w, httpStatus(e.Code), WriteResponse{Error: e})
		return
	}
	results, err := c.WriteBatchID(req.Owner, req.RequestID, req.Ops)
	if err != nil {
		ce := asError(err)
		writeJSON(w, httpStatus(ce.Code), WriteResponse{Error: ce})
		return
	}
	writeJSON(w, http.StatusOK, WriteResponse{Results: results})
}

func (c *Ctl) handleRead(w http.ResponseWriter, r *http.Request) {
	q := &Query{Kind: r.URL.Query().Get("kind"), VDev: r.URL.Query().Get("vdev")}
	res, err := c.Read(r.URL.Query().Get("owner"), q)
	if err != nil {
		ce := wrap(err, -1)
		writeJSON(w, httpStatus(ce.Code), ReadResponse{Error: ce})
		return
	}
	writeJSON(w, http.StatusOK, ReadResponse{Result: res})
}

// handleHealth is the dedicated health route: the same payload as
// /v1/read?kind=health, as its own endpoint so monitors need no query
// grammar. Hitting it advances the breaker state machine.
func (c *Ctl) handleHealth(w http.ResponseWriter, r *http.Request) {
	q := &Query{Kind: "health", VDev: r.URL.Query().Get("vdev")}
	res, err := c.Read("", q)
	if err != nil {
		ce := wrap(err, -1)
		writeJSON(w, httpStatus(ce.Code), ReadResponse{Error: ce})
		return
	}
	writeJSON(w, http.StatusOK, ReadResponse{Result: res})
}

// handleLint is the dedicated verifier route: the same payload as
// /v1/read?kind=lint, as its own endpoint so CI gates can curl it directly.
func (c *Ctl) handleLint(w http.ResponseWriter, r *http.Request) {
	q := &Query{Kind: "lint", VDev: r.URL.Query().Get("vdev")}
	res, err := c.Read("", q)
	if err != nil {
		ce := wrap(err, -1)
		writeJSON(w, httpStatus(ce.Code), ReadResponse{Error: ce})
		return
	}
	writeJSON(w, http.StatusOK, ReadResponse{Result: res})
}

func (c *Ctl) handleStats(w http.ResponseWriter, r *http.Request) {
	all := c.Stats()
	resp := StatsResponse{VDevs: make([]statsEntry, len(all))}
	for i, st := range all {
		e := statsEntry{VDev: st.VDev, Owner: st.Owner, Packets: st.Packets, Bytes: st.Bytes}
		for _, ts := range st.Tables {
			e.Tables = append(e.Tables, tableEntry{Table: ts.Table, Hits: ts.Hits, Misses: ts.Misses, Entries: ts.Entries})
		}
		resp.VDevs[i] = e
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Ctl) handleEvents(w http.ResponseWriter, r *http.Request) {
	since, _ := strconv.ParseInt(r.URL.Query().Get("since"), 10, 64)
	wait := maxWait
	if s := r.URL.Query().Get("wait"); s != "" {
		secs, err := strconv.Atoi(s)
		if err != nil || secs < 0 {
			writeJSON(w, http.StatusBadRequest, ReadResponse{Error: invalidf("bad wait %q", s)})
			return
		}
		if d := time.Duration(secs) * time.Second; d < wait {
			wait = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	events, head := c.Events(ctx, since)
	next := since
	if head < next {
		// Cursor from a previous server incarnation: rewind to the start of
		// this instance's buffer so its events replay (waitSince returned
		// immediately, so the client learns without burning a full poll).
		next = 0
	}
	for _, e := range events {
		if e.Seq > next {
			next = e.Seq
		}
	}
	writeJSON(w, http.StatusOK, EventsResponse{Events: events, Next: next, Head: head})
}
