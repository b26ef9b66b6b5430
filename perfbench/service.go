package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"

	"modpeg/internal/registry"
	"modpeg/internal/serve"
)

// clients is the most client goroutines and connections any workload
// uses: the machine the benchmark was tuned on has two cores, and the
// server shares them with the load generator.
const clients = 2

// service is an in-process `modpeg serve` listening on 127.0.0.1:0
// with an in-memory registry, plus the HTTP client that drives it. No
// process is spawned; stop ends everything start began.
type service struct {
	base   string
	reg    *registry.Registry
	client *http.Client
	tr     *http.Transport

	cancel   context.CancelFunc
	done     chan error
	stopOnce sync.Once
	stopErr  error
}

// startService builds the server with the given static grammars
// (compiled here, at their default engine) and starts serving.
func startService(grammars []string) (*service, error) {
	reg, err := registry.New(registry.Config{})
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	srv, err := serve.New(serve.Config{Grammars: grammars, Registry: reg})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	tr := &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
	return &service{
		base:   "http://" + ln.Addr().String(),
		reg:    reg,
		client: &http.Client{Transport: tr},
		tr:     tr,
		cancel: cancel,
		done:   done,
	}, nil
}

// stop cancels the Serve context, waits for Serve to return and closes
// the client's idle connections. It is safe to call more than once.
func (s *service) stop() error {
	s.stopOnce.Do(func() {
		s.cancel()
		s.stopErr = <-s.done
		s.tr.CloseIdleConnections()
	})
	return s.stopErr
}

// do sends one request and reads the whole response body into buf.
func (s *service) do(ctx context.Context, method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// metricsSeries counts the sample lines GET /metrics serves.
func (s *service) metricsSeries(ctx context.Context) (float64, error) {
	var buf bytes.Buffer
	status, err := s.do(ctx, http.MethodGet, "/metrics", nil, &buf)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: HTTP %d", status)
	}
	n := 0.0
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if len(line) > 0 && line[0] != '#' {
			n++
		}
	}
	return n, nil
}

// parseBody is the /parse request body.
func parseBody(tenant, grammar, input string) []byte {
	b, _ := json.Marshal(serve.ParseRequest{Tenant: tenant, Grammar: grammar, Input: input}) // cannot fail: strings only
	return b
}

// parseReply is what the checks need from a /parse response.
type parseReply struct {
	value   []byte // the value's wire bytes (200 only)
	version int    // echoed registry version (200 only)
	errPos  int    // syntax-error offset (422 only)
}

// valueKey and statsKey delimit the value inside a 200 body. The
// server encodes ParseResponse fields in declaration order, so the
// value starts at the first `"value":` and ends at the last
// `,"stats":` — any occurrence inside the value comes earlier, because
// the value is written before the stats.
var (
	valueKey = []byte(`"value":`)
	statsKey = []byte(`,"stats":`)
)

// readReply extracts the value and the echoed version from a /parse
// response without decoding the value.
func readReply(status int, body []byte) (parseReply, error) {
	switch status {
	case http.StatusOK:
		i := bytes.Index(body, valueKey)
		j := bytes.LastIndex(body, statsKey)
		if i < 0 || j < i {
			return parseReply{}, errors.New("response without value")
		}
		r := parseReply{value: body[i+len(valueKey) : j], errPos: -1}
		var head struct {
			Version int `json:"version"`
		}
		// body[:i] ends with the comma before "value"; swap it for '}'.
		if err := json.Unmarshal(append(body[:i-1:i-1], '}'), &head); err != nil {
			return parseReply{}, fmt.Errorf("response head: %w", err)
		}
		r.version = head.Version
		return r, nil
	case http.StatusUnprocessableEntity:
		var e serve.ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil {
			return parseReply{}, fmt.Errorf("error response: %w", err)
		}
		if e.Error != "syntax" || e.Location == nil {
			return parseReply{}, fmt.Errorf("unexpected %s error: %s", e.Error, e.Message)
		}
		return parseReply{errPos: e.Location.Offset}, nil
	default:
		return parseReply{}, fmt.Errorf("HTTP %d: %s", status, truncate(body))
	}
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// grammarPath is the registry URL of one grammar (or one version).
func grammarPath(tenant, name string, version int) string {
	p := "/grammars/" + tenant + "/" + name
	if version > 0 {
		p += "/" + strconv.Itoa(version)
	}
	return p
}
