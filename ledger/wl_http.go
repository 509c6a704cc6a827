package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"llhsc/internal/bench"
	"llhsc/internal/checkcache"
	"llhsc/internal/core"
	"llhsc/internal/delta"
	"llhsc/internal/dts"
	"llhsc/internal/featmodel"
	"llhsc/internal/obs"
	"llhsc/internal/runningexample"
	"llhsc/internal/schema"
	"llhsc/internal/service"
)

const (
	// httpCallers is the closed loop's connection count.
	httpCallers = 2
	// httpLines is the pool of fresh synthetic lines, ten of each of the
	// 27 shapes. Each has at least two product trees, so a full cycle
	// inserts far more trees than the server's 256-tree cache holds: a
	// line met again after a cycle has been evicted and misses, as a
	// fresh line would.
	httpLines = 270
	// httpStream is the length of the seeded request sequence.
	httpStream = 4096
	// httpRecent is how many of the latest fresh lines a repeat picks from.
	httpRecent = 4
)

// requestKind selects the known answer for a request.
type requestKind int

const (
	kindExample   requestKind = iota // the paper's running example: OK, Bao config generated
	kindE6                           // no d4: memory banks collide at 0x0
	kindSynthetic                    // a construction-clean synthetic line
)

// httpRequest is one pre-encoded /check body with its known answer.
type httpRequest struct {
	kind requestKind
	body []byte
	req  service.CheckRequest
	vms  int
}

// serverOptions mirrors the llhsc-server binary's default flags, except
// that the per-request log lines go to io.Discard (they are still
// formatted) instead of standard error.
func serverOptions() service.Options {
	return service.Options{
		RequestTimeout: 30 * time.Second,
		MaxInFlight:    16,
		MaxBodyBytes:   4 << 20,
		CacheSize:      256,
		Degrade:        service.DegradeOff,
		Registry:       obs.NewRegistry(),
		FlightSize:     obs.DefaultFlightCapacity,
		LogWriter:      io.Discard,
	}
}

// setupHTTP starts the service on loopback with the binary's defaults
// and pre-generates a seeded request stream: 15% running example, 15%
// E6 truncation, 20% repeats of a recent synthetic line and 50% fresh
// synthetic lines, so the check cache both hits and misses in
// steady state. Two connections drive it as a closed loop.
func setupHTTP(seed int64) (*instance, error) {
	svc, err := service.NewService(serverOptions())
	if err != nil {
		return nil, err
	}
	// The traced run replays each request on a shadow service and
	// pipeline with caches of the same size, fed the same sequence.
	shadow, err := service.NewService(serverOptions())
	if err != nil {
		return nil, err
	}
	pipeCache, layerCache := checkcache.New(256), checkcache.New(256)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	transport := &http.Transport{MaxIdleConnsPerHost: httpCallers, MaxConnsPerHost: httpCallers, DisableCompression: true}
	client := &http.Client{Transport: transport}
	closeAll := func() {
		transport.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a failed drain is followed by Close below
		_ = srv.Close()
		<-served
		// Neither service has a persistent tier, so Close has nothing
		// to flush.
		_ = svc.Close()
		_ = shadow.Close()
	}
	base := "http://" + ln.Addr().String()

	reqs, err := httpRequests(client, base, seed)
	if err != nil {
		closeAll()
		return nil, err
	}
	stream := httpRequestStream(seed)

	ctr := newCounters()
	check := func(ctx context.Context, _ int, seq int64, tr *tracer, root int32) error {
		r := &reqs[stream[seq%httpStream]]
		live := tr.begin("http.request", root, seq)
		status, body, err := post(ctx, client, base+"/check", r.body)
		tr.end(live)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("status %d: %s", status, firstLine(body))
		}
		var resp service.CheckResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decoding response: %w", err)
		}
		if resp.Stats != nil {
			addRunStats(ctr, *resp.Stats)
			ctr.add("checkcache.hits", float64(resp.Stats.CacheHits))
			ctr.add("checkcache.misses", float64(resp.Stats.CacheMisses))
		}
		if err := r.verify(&resp); err != nil {
			return err
		}
		if tr == nil {
			return nil
		}
		replay := tr.begin("trace.replay", root, seq)
		defer tr.end(replay)
		return replayRequest(ctx, tr, live, seq, ctr, shadow, pipeCache, layerCache, r)
	}
	return &instance{callers: httpCallers, warmup: 64, check: check, ctr: ctr, close: closeAll}, nil
}

// post sends one request and reads the whole reply.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(string(b), "\n")
	return s
}

// verify checks a response against the request's known answer.
func (r *httpRequest) verify(resp *service.CheckResponse) error {
	switch r.kind {
	case kindE6:
		if resp.OK {
			return errors.New("E6 truncation line reported OK, want a collision at 0x0")
		}
		for _, vm := range append(resp.VMs, resp.Platform) {
			for _, v := range vm.Violations {
				if v.Rule == "semantic:overlap" && strings.HasSuffix(v.Message, "at address 0x0") {
					return nil
				}
			}
		}
		return errors.New("E6 truncation line: no semantic:overlap violation at address 0x0")
	default:
		if !resp.OK {
			return fmt.Errorf("clean line reported violations (kind %d)", r.kind)
		}
		if len(resp.VMs) != r.vms || resp.ConfigC == "" {
			return fmt.Errorf("clean line: %d VM results and config %d bytes, want %d VMs and a Bao config",
				len(resp.VMs), len(resp.ConfigC), r.vms)
		}
	}
	return nil
}

// httpRequests builds the request pool: index 0 is the running example
// (as served by GET /example), 1 the E6 truncation line (the example
// without delta d4), then httpLines fresh synthetic lines.
func httpRequests(client *http.Client, base string, seed int64) ([]httpRequest, error) {
	resp, err := client.Get(base + "/example")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var example service.CheckRequest
	if err := json.NewDecoder(resp.Body).Decode(&example); err != nil {
		return nil, fmt.Errorf("GET /example: %w", err)
	}
	e6 := example
	e6.Deltas = withoutDelta(runningexample.DeltasSource, "d4")
	if e6.Deltas == example.Deltas {
		return nil, errors.New("running example has no delta d4")
	}
	out := []httpRequest{
		{kind: kindExample, req: example, vms: len(example.VMs)},
		{kind: kindE6, req: e6, vms: len(e6.VMs)},
	}
	// Every seed gets the same multiset of line shapes, so the work mix
	// does not depend on the seed; the seed orders them.
	var shapes [][3]int
	for cpus := 2; cpus <= 4; cpus++ {
		for uarts := 2; uarts <= 4; uarts++ {
			for vms := 1; vms <= cpus; vms++ {
				shapes = append(shapes, [3]int{cpus, uarts, vms})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(httpLines)
	for i := 0; i < httpLines; i++ {
		sh := shapes[order[i]%len(shapes)]
		req, err := syntheticRequest(sh[0], sh[1], sh[2], fmt.Sprintf("llhsc,ledger-%d-%d", seed, i))
		if err != nil {
			return nil, err
		}
		out = append(out, httpRequest{kind: kindSynthetic, req: req, vms: sh[2]})
	}
	for i := range out {
		body, err := json.Marshal(out[i].req)
		if err != nil {
			return nil, err
		}
		out[i].body = body
	}
	return out, nil
}

// httpRequestStream draws the seeded sequence of request-pool indices.
// Each block of 20 requests holds exactly 3 running examples, 3 E6
// lines, 4 repeats of one of the last httpRecent fresh lines and 10
// fresh lines, in seeded order.
func httpRequestStream(seed int64) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	block := []requestKind{kindExample, kindExample, kindExample, kindE6, kindE6, kindE6}
	const repeat = requestKind(-1)
	for len(block) < 10 {
		block = append(block, repeat)
	}
	for len(block) < 20 {
		block = append(block, kindSynthetic)
	}
	stream := make([]int, 0, httpStream)
	fresh := 0
	for len(stream) < httpStream {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, k := range block {
			switch {
			case k == kindExample:
				stream = append(stream, 0)
			case k == kindE6:
				stream = append(stream, 1)
			case k == repeat && fresh > 0:
				back := 1 + rng.Intn(min(fresh, httpRecent))
				stream = append(stream, 2+(fresh-back)%httpLines)
			default:
				stream = append(stream, 2+fresh%httpLines)
				fresh++
			}
		}
	}
	return stream[:httpStream]
}

// syntheticRequest renders bench.SyntheticProductLine as /check source
// text; model makes every line's trees distinct from other lines'.
func syntheticRequest(cpus, uarts, vms int, model string) (service.CheckRequest, error) {
	p, err := bench.SyntheticProductLine(cpus, uarts, vms)
	if err != nil {
		return service.CheckRequest{}, err
	}
	p.Core.Root.SetProperty(&dts.Property{Name: "model", Value: dts.StringValueOf(model)})
	var deltas strings.Builder
	for _, d := range p.Deltas.Deltas {
		fmt.Fprintf(&deltas, "delta %s when %s {\n", d.Name, d.When)
		for _, op := range d.Ops {
			if op.Kind != delta.OpRemovesNode {
				return service.CheckRequest{}, fmt.Errorf("synthetic delta %s: unexpected %v operation", d.Name, op.Kind)
			}
			fmt.Fprintf(&deltas, "    removes node %s;\n", op.Target)
		}
		deltas.WriteString("}\n\n")
	}
	req := service.CheckRequest{
		CoreDTS:      p.Core.Print(),
		Deltas:       deltas.String(),
		FeatureModel: p.Model.Format(),
	}
	for _, cfg := range p.VMConfigs {
		req.VMs = append(req.VMs, cfg.Sorted())
	}
	return req, nil
}

// withoutDelta removes the module named name from delta source text.
func withoutDelta(src, name string) string {
	start := strings.Index(src, "delta "+name+" ")
	if start < 0 {
		return src
	}
	end := strings.Index(src[start+1:], "\ndelta ")
	if end < 0 {
		return src[:start]
	}
	return src[:start] + src[start+1+end+1:]
}

// replayRequest accounts for the live request's server-side work: the
// whole handler on the shadow service (service.serve, an in-memory
// recorder), then below it the parse calls and the pipeline run the
// handler makes, with the pipeline's layer calls below core.run.
func replayRequest(ctx context.Context, tr *tracer, parent int32, seq int64, ctr *counters,
	shadow http.Handler, pipeCache, layerCache *checkcache.Cache, r *httpRequest) error {
	serve := tr.begin("service.serve", parent, seq)
	rec := httptest.NewRecorder()
	shadow.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/check", bytes.NewReader(r.body)))
	tr.end(serve)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("replayed request: status %d", rec.Code)
	}
	ctr.add("service.response_bytes", float64(rec.Body.Len()))

	var tree *dts.Tree
	var set *delta.Set
	var model *featmodel.Model
	var err error
	tr.do("dts.parse", serve, seq, func(int32) {
		tree, err = dts.Parse("core.dts", r.req.CoreDTS,
			dts.WithIncluder(dts.MapIncluder(r.req.Includes)), dts.WithMaxSourceBytes(4<<20))
	})
	if err != nil {
		return err
	}
	ctr.add("dts.nodes", float64(countNodes(tree.Root)))
	tr.do("delta.parse", serve, seq, func(int32) { set, err = delta.Parse("deltas", r.req.Deltas) })
	if err != nil {
		return err
	}
	tr.do("featmodel.parse", serve, seq, func(int32) {
		model, err = featmodel.ParseModel("featuremodel", r.req.FeatureModel)
	})
	if err != nil {
		return err
	}
	p := &core.Pipeline{
		Core: tree, Deltas: set, Model: model, Schemas: schema.StandardSet(),
		VMConfigs: requestConfigs(model, r.req.VMs), Cache: pipeCache,
	}
	run := tr.begin("core.run", serve, seq)
	report, err := p.RunContext(ctx, core.Limits{})
	tr.end(run)
	if err != nil {
		return err
	}
	p.Cache = nil
	ok, err := replayPipeline(ctx, tr, run, seq, ctr, p, core.Limits{}, layerCache)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if ok != report.OK() {
		return fmt.Errorf("replayed verdict ok=%v differs from the run's ok=%v", ok, report.OK())
	}
	return nil
}

// requestConfigs completes each VM's feature list with its ancestors
// and the root, as the /check handler does.
func requestConfigs(model *featmodel.Model, vms [][]string) []featmodel.Configuration {
	configs := make([]featmodel.Configuration, len(vms))
	for i, names := range vms {
		cfg := featmodel.ConfigOf(names...)
		for name := range cfg {
			for p := model.Parent(name); p != nil; p = model.Parent(p.Name) {
				cfg[p.Name] = true
			}
		}
		cfg[model.Root.Name] = true
		configs[i] = cfg
	}
	return configs
}
