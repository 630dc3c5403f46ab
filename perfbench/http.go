package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"os"
	"reflect"
	"time"

	blazeit "repro"
	"repro/internal/core"
)

// server is one benchmarked blazeit server listening on loopback, with the
// HTTP client that drives it.
type server struct {
	srv    *blazeit.Server
	hs     *http.Server
	served chan struct{} // closed when the serve goroutine returns
	base   string
	client *http.Client
	dir    string
}

// startServer builds a fresh server over a fresh index directory and
// starts serving it on a loopback port.
func startServer(c *config) (*server, error) {
	dir, err := os.MkdirTemp(c.tmpDir(), "index-")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := blazeit.NewServer(blazeit.ServeOptions{
		Options:    c.engineOptions(dir),
		Streams:    []string{stream},
		Workers:    workers,
		QueueDepth: 64,
	})
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 8},
		},
		dir: dir,
	}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// close stops serving, waits for the serve goroutine, closes the server
// and removes its index directory.
func (s *server) close() {
	_ = s.hs.Shutdown(context.Background()) // no deadline: every client has returned
	<-s.served
	s.client.CloseIdleConnections()
	s.srv.Close()
	os.RemoveAll(s.dir)
}

// wireRow is one returned record as the server encodes it.
type wireRow struct {
	Timestamp int    `json:"timestamp"`
	Class     string `json:"class"`
	TrackID   int    `json:"track_id"`
	Box       struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
		W float64 `json:"w"`
		H float64 `json:"h"`
	} `json:"box"`
	Confidence float64 `json:"confidence"`
}

// queryResp is the part of a POST /query reply the benchmark reads.
type queryResp struct {
	Canonical string   `json:"canonical"`
	Plan      string   `json:"plan"`
	Cached    bool     `json:"cached"`
	Value     *float64 `json:"value"`
	StdErr    *float64 `json:"std_err"`
	// The answer lists stay encoded until the answer check decodes them,
	// once per distinct reply, to keep the client's share of the CPU and
	// memory small.
	Frames    json.RawMessage `json:"frames"`
	Rows      json.RawMessage `json:"rows"`
	TrackIDs  json.RawMessage `json:"track_ids"`
	Truncated bool            `json:"truncated"`
	Stats     struct {
		TotalSeconds float64 `json:"total_seconds"`
	} `json:"stats"`
	PlanReport *struct {
		Chosen string `json:"chosen"`
	} `json:"plan_report"`
}

// chosen is the plan the reply's execution ran.
func (r *queryResp) chosen() string {
	if r.PlanReport != nil {
		return r.PlanReport.Chosen
	}
	return r.Plan
}

// subResp is the part of a POST /subscribe or GET /poll reply the
// benchmark reads.
type subResp struct {
	ID      string     `json:"id"`
	Horizon int        `json:"horizon"`
	Plan    string     `json:"plan"`
	Updated bool       `json:"updated"`
	Result  *queryResp `json:"result"`
}

// ingestResp is the part of a POST /ingest reply the benchmark reads.
type ingestResp struct {
	Horizon int `json:"horizon"`
}

// statusError is a non-200 reply.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// call sends one request and decodes a 200 reply into out.
func (s *server) call(method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	return json.Unmarshal(data, out)
}

func (s *server) query(q string, noCache bool) (*queryResp, error) {
	var out queryResp
	err := s.call(http.MethodPost, "/query", map[string]any{"stream": stream, "query": q, "no_cache": noCache}, &out)
	return &out, err
}

func (s *server) subscribe(q string) (*subResp, error) {
	var out subResp
	err := s.call(http.MethodPost, "/subscribe", map[string]any{"stream": stream, "query": q}, &out)
	return &out, err
}

func (s *server) poll(id string) (*subResp, error) {
	var out subResp
	err := s.call(http.MethodGet, "/poll?id="+url.QueryEscape(id), nil, &out)
	return &out, err
}

func (s *server) ingest(frames int) (*ingestResp, error) {
	var out ingestResp
	err := s.call(http.MethodPost, "/ingest", map[string]any{"stream": stream, "frames": frames}, &out)
	return &out, err
}

// serverMaxRows is the server's default row cap per reply; a longer
// answer arrives truncated to its first serverMaxRows rows.
const serverMaxRows = 1000

// answer is a query answer in comparable form: every float as its bit
// pattern, every empty list as nil, rows cut to the server's cap. The
// cost meter is not part of it.
type answer struct {
	Value, StdErr *uint64
	Frames        []int
	Rows          []rowBits
	Truncated     bool
	TrackIDs      []int
}

type rowBits struct {
	Timestamp        int
	Class            string
	TrackID          int
	X, Y, W, H, Conf uint64
}

func bitsPtr(f *float64) *uint64 {
	if f == nil {
		return nil
	}
	b := math.Float64bits(*f)
	return &b
}

func nilIfEmpty(v []int) []int {
	if len(v) == 0 {
		return nil
	}
	return v
}

// sameReply reports whether two replies carry the same answer, comparing
// the encoded lists byte for byte.
func sameReply(a, b *queryResp) bool {
	return reflect.DeepEqual(bitsPtr(a.Value), bitsPtr(b.Value)) &&
		reflect.DeepEqual(bitsPtr(a.StdErr), bitsPtr(b.StdErr)) &&
		a.Truncated == b.Truncated && bytes.Equal(a.Frames, b.Frames) &&
		bytes.Equal(a.Rows, b.Rows) && bytes.Equal(a.TrackIDs, b.TrackIDs)
}

// share points r's encoded lists at prev's where they are equal, so
// identical replies keep one copy.
func (r *queryResp) share(prev *queryResp) {
	for _, f := range []struct{ dst, src *json.RawMessage }{
		{&r.Frames, &prev.Frames}, {&r.Rows, &prev.Rows}, {&r.TrackIDs, &prev.TrackIDs},
	} {
		if bytes.Equal(*f.dst, *f.src) {
			*f.dst = *f.src
		}
	}
}

// decodeList decodes an encoded list; absent or null decodes to nil.
func decodeList(raw json.RawMessage, v any) error {
	if len(raw) == 0 {
		return nil
	}
	return json.Unmarshal(raw, v)
}

// answerOf converts a reply's answer fields.
func answerOf(r *queryResp) (answer, error) {
	a := answer{Value: bitsPtr(r.Value), StdErr: bitsPtr(r.StdErr), Truncated: r.Truncated}
	var rows []wireRow
	if err := errors.Join(decodeList(r.Frames, &a.Frames), decodeList(r.Rows, &rows), decodeList(r.TrackIDs, &a.TrackIDs)); err != nil {
		return answer{}, fmt.Errorf("decoding answer: %w", err)
	}
	a.Frames, a.TrackIDs = nilIfEmpty(a.Frames), nilIfEmpty(a.TrackIDs)
	for _, w := range rows {
		a.Rows = append(a.Rows, rowBits{
			Timestamp: w.Timestamp, Class: w.Class, TrackID: w.TrackID,
			X: math.Float64bits(w.Box.X), Y: math.Float64bits(w.Box.Y),
			W: math.Float64bits(w.Box.W), H: math.Float64bits(w.Box.H),
			Conf: math.Float64bits(w.Confidence),
		})
	}
	return a, nil
}

// answerOfResult converts an engine result by the rules the server's
// reply encoding applies: a value only for scalar kinds, a standard
// error only when nonzero.
func answerOfResult(r *core.Result) answer {
	a := answer{Frames: nilIfEmpty(r.Frames), TrackIDs: nilIfEmpty(r.TrackIDs)}
	switch r.Kind {
	case "aggregate", "distinct-count", "binary-detection":
		v := r.Value
		a.Value = bitsPtr(&v)
		if r.StdErr != 0 {
			se := r.StdErr
			a.StdErr = bitsPtr(&se)
		}
	}
	rows := r.Rows
	if len(rows) > serverMaxRows {
		rows, a.Truncated = rows[:serverMaxRows], true
	}
	for _, row := range rows {
		a.Rows = append(a.Rows, rowBits{
			Timestamp: row.Timestamp, Class: string(row.Class), TrackID: row.TrackID,
			X: math.Float64bits(row.Mask.X), Y: math.Float64bits(row.Mask.Y),
			W: math.Float64bits(row.Mask.W), H: math.Float64bits(row.Mask.H),
			Conf: math.Float64bits(row.Confidence),
		})
	}
	return a
}
