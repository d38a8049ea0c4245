package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/defend"
	"repro/internal/edge"
	"repro/internal/fleet"
	"repro/internal/livechar"
	"repro/internal/logfmt"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// member is one in-process edge node, wired as cmd/liveedge -serve
// wires it: WildcardOrigin over JSONOrigin behind a FaultyOrigin and a
// ResilientOrigin, the HTTPEdge with serve-stale and an instrumented
// registry, optional defend admission, and the livechar Log tap, on
// its own data and admin loopback listeners.
type member struct {
	name     string
	edge     *edge.HTTPEdge
	faulty   *resilience.FaultyOrigin
	fetches  atomic.Int64 // origin fetches the edge made
	char     *livechar.LiveChar
	data     *server
	admin    *server
	dataURL  string
	adminURL string
}

// stack is the composed front → edge → origin serve path.
type stack struct {
	members    []*member
	fleet      *fleet.Fleet
	stopHealth func()
	front      *server
	frontURL   string
}

// countingOrigin counts the fetches an edge sends to its origin path
// (the CDN customer's offload denominator).
type countingOrigin struct {
	inner edge.Origin
	n     *atomic.Int64
}

func (o countingOrigin) Fetch(path string) ([]byte, string, bool, error) {
	o.n.Add(1)
	return o.inner.Fetch(path)
}

// tracedOrigin records a span per Fetch.
type tracedOrigin struct {
	inner  edge.Origin
	tr     *tracer
	l      layer
	member int
}

func (o tracedOrigin) Fetch(path string) ([]byte, string, bool, error) {
	if !o.tr.active() {
		return o.inner.Fetch(path)
	}
	s := span{Layer: o.l, Member: o.member, Path: path, Start: o.tr.now()}
	b, m, c, err := o.inner.Fetch(path)
	o.tr.add(s)
	return b, m, c, err
}

// tracedDefense records spans around Admit and RecordOutcome.
type tracedDefense struct {
	inner  edge.Defense
	tr     *tracer
	member int
}

func (d tracedDefense) Admit(now time.Time, r *http.Request) edge.DefenseAction {
	if !d.tr.active() {
		return d.inner.Admit(now, r)
	}
	s := span{Req: reqID(r), Layer: lAdmit, Member: d.member, Start: d.tr.now()}
	act := d.inner.Admit(now, r)
	s.Collapsed = act.CollapseKey != ""
	d.tr.add(s)
	return act
}

func (d tracedDefense) RecordOutcome(now time.Time, r *http.Request, cache logfmt.CacheStatus, status int) {
	if !d.tr.active() {
		d.inner.RecordOutcome(now, r, cache, status)
		return
	}
	s := span{Req: reqID(r), Layer: lOutcome, Member: d.member, Start: d.tr.now()}
	d.inner.RecordOutcome(now, r, cache, status)
	d.tr.add(s)
}

// tracedHandler records a span per request at a tier boundary.
func tracedHandler(h http.Handler, tr *tracer, l layer, member int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.active() {
			h.ServeHTTP(w, r)
			return
		}
		s := span{Req: reqID(r), Layer: l, Member: member, Start: tr.now()}
		if l == lEdge {
			s.URL = "http://" + r.Host + r.URL.String()
			s.Path = r.URL.Path
			if r.URL.RawQuery != "" {
				s.Path += "?" + r.URL.RawQuery
			}
		}
		h.ServeHTTP(w, r)
		tr.add(s)
	})
}

// tracedTransport records the front's outbound attempt from send until
// the response body is closed.
type tracedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.tr.active() {
		return t.base.RoundTrip(req)
	}
	s := span{Req: reqID(req), Layer: lAttempt, Member: -1, Start: t.tr.now()}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, s: s, tr: t.tr}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	s    span
	tr   *tracer
	done bool
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.done {
		b.done = true
		b.tr.add(b.s)
	}
	return err
}

func reqID(r *http.Request) int64 {
	id, _ := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
	return id
}

// proxyTransport is the transport fleet.New builds when none is given;
// the traced stack wraps an identical one.
func proxyTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 256
	return t
}

// server is an http.Server on a loopback listener whose close waits
// for the serving goroutine.
type server struct {
	srv  *http.Server
	done chan struct{}
}

// serveOn serves h on a fresh loopback listener.
func serveOn(h http.Handler) (*server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	s := &server{srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, "http://" + ln.Addr().String(), nil
}

func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// newMember builds and starts one edge node. tr may be nil.
func newMember(i int, sc stackConfig, wl *workload, tr *tracer) (*member, error) {
	m := &member{name: fmt.Sprintf("edge-%02d", i)}
	inner := &edge.WildcardOrigin{
		Inner:   &edge.JSONOrigin{Articles: sc.JSONOriginArticles, Latency: sc.JSONOriginLatency.D()},
		Latency: sc.WildcardLatency.D(),
	}
	m.faulty = &resilience.FaultyOrigin{Inner: inner, Seed: sc.FaultSeed, ErrorRate: sc.FaultRate}
	breaker := &resilience.Breaker{FailureThreshold: sc.BreakerFailures, OpenFor: sc.BreakerOpenFor.D()}
	ro := &resilience.ResilientOrigin{
		Inner:          m.faulty,
		Retry:          resilience.Backoff{Base: sc.RetryBase.D(), Cap: sc.RetryCap.D(), Attempts: sc.RetryAttempts},
		Breaker:        breaker,
		AttemptTimeout: sc.AttemptTimeout.D(),
		Seed:           sc.FaultSeed + 1,
	}
	var origin edge.Origin = ro
	if tr != nil {
		ro.Inner = tracedOrigin{inner: m.faulty, tr: tr, l: lInner, member: i}
		origin = tracedOrigin{inner: ro, tr: tr, l: lResilient, member: i}
	}
	m.edge = &edge.HTTPEdge{
		Cache:      edge.NewCache(sc.CacheBytes, sc.CacheTTL.D(), sc.CacheShards),
		Origin:     countingOrigin{inner: origin, n: &m.fetches},
		ServeStale: sc.ServeStale,
		Degraded:   ro.Degraded,
	}
	reg := obs.NewRegistry()
	m.edge.Instrument(reg)
	if wl.Churn {
		d := defend.New(defend.Config{ClientIDHeader: sc.DefendClientIDHeader})
		d.Instrument(reg)
		m.edge.Defend = d
		if tr != nil {
			m.edge.Defend = tracedDefense{inner: d, tr: tr, member: i}
		}
	}
	m.edge.Trace = &obs.Trace{Limit: sc.EdgeTraceLimit}
	ro.Obs = resilience.NewInstrumentation(reg)
	resilience.RegisterBreaker(reg, breaker)
	health := &obs.Health{}
	adminMux := obs.AdminMux(reg, health)
	m.char = livechar.New(livechar.Config{
		Window: sc.LiveCharWindow.D(), Bin: sc.LiveCharBin.D(), Seed: sc.FaultSeed, Node: m.name,
	})
	m.char.Instrument(reg)
	adminMux.Handle("/charz", m.char.Handler())
	m.edge.Log = m.char.Observe
	if tr != nil {
		m.edge.Log = func(r *logfmt.Record) {
			if !tr.active() {
				m.char.Observe(r)
				return
			}
			s := span{Layer: lTap, Member: i, URL: r.URL, Start: tr.now()}
			m.char.Observe(r)
			tr.add(s)
		}
	}

	// /healthz rides the data listener, as in liveedge: the fleet
	// prober shares fate with real traffic.
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !health.Ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	var h http.Handler = m.edge
	if tr != nil {
		h = tracedHandler(m.edge, tr, lEdge, i)
	}
	mux.Handle("/", h)
	var err error
	if m.data, m.dataURL, err = serveOn(mux); err != nil {
		return nil, err
	}
	if m.admin, m.adminURL, err = serveOn(adminMux); err != nil {
		m.data.close()
		return nil, err
	}
	health.SetReady(true)
	m.char.Start()
	return m, nil
}

// buildStack starts the members and the fleet front, and returns once
// every member's /readyz and the front answer. tr may be nil.
func buildStack(sc stackConfig, wl *workload, tr *tracer) (*stack, error) {
	st := &stack{}
	members := make([]*fleet.Member, sc.Members)
	for i := range members {
		m, err := newMember(i, sc, wl, tr)
		if err != nil {
			st.close()
			return nil, err
		}
		st.members = append(st.members, m)
		members[i] = &fleet.Member{Name: m.name, URL: m.dataURL, HealthURL: m.dataURL + "/healthz"}
	}
	cfg := fleet.Config{
		Probe:       sc.FleetProbe.D(),
		DownAfter:   sc.FleetDownAfter,
		UpAfter:     sc.FleetUpAfter,
		MaxFailover: sc.FleetMaxFailover,
		Hedge:       sc.FleetHedge,
	}
	if tr != nil {
		cfg.Transport = tracedTransport{base: proxyTransport(), tr: tr}
	}
	st.fleet = fleet.New(cfg, members...)
	st.fleet.Instrument(obs.NewRegistry())
	st.stopHealth = st.fleet.StartHealth()
	var h http.Handler = st.fleet
	if tr != nil {
		h = tracedHandler(st.fleet, tr, lFleet, -1)
	}
	var err error
	if st.front, st.frontURL, err = serveOn(h); err != nil {
		st.close()
		return nil, err
	}
	if err := st.awaitReady(5 * time.Second); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// awaitReady polls every member's /readyz, then the front.
func (st *stack) awaitReady(limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	urls := make([]string, 0, len(st.members)+1)
	for _, m := range st.members {
		urls = append(urls, m.adminURL+"/readyz")
	}
	urls = append(urls, st.frontURL+"/healthz")
	for _, u := range urls {
		for {
			req, _ := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
			resp, err := client.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if ctx.Err() != nil {
				return fmt.Errorf("stack not ready: %s", u)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// close stops the health checker, every server and the livechar
// consumers, and waits for them.
func (st *stack) close() {
	if st.stopHealth != nil {
		st.stopHealth()
	}
	if st.front != nil {
		st.front.close()
	}
	for _, m := range st.members {
		m.data.close()
		m.admin.close()
		m.char.Close()
	}
}

// prefill fills each member's cache to capacity with objects on a host
// no replayed request names, so the replay starts against a full cache
// — a CDN edge's steady state — and every insert evicts.
func (st *stack) prefill(capacity int64) {
	now := time.Now()
	for _, m := range st.members {
		var bytes int64
		for i := 0; bytes < capacity+capacity/8; i++ {
			key := fmt.Sprintf("http://prefill.invalid/%s/obj/%d", m.name, i)
			h := fnv.New64a()
			h.Write([]byte(key))
			size := int64(200 + h.Sum64()%4096)
			m.edge.Cache.Insert(key, size, now, false)
			bytes += size
		}
	}
}

// counters is a point-in-time sum over the members.
type counters struct {
	cache      edge.CacheMetrics
	fetches    int64 // edge → origin path fetches
	attempts   int64 // inner origin attempts
	charEvents int64
	charDrops  int64
	memberReqs []int64
}

func (st *stack) counters() counters {
	var c counters
	for _, m := range st.members {
		cm := m.edge.Cache.Metrics()
		c.cache.Hits += cm.Hits
		c.cache.Misses += cm.Misses
		c.cache.Evictions += cm.Evictions
		c.fetches += m.fetches.Load()
		c.attempts += m.faulty.Fetches()
		snap := m.char.Snapshot()
		c.charEvents += snap.Events
		c.charDrops += snap.Drops
	}
	for _, ms := range st.fleet.Members() {
		c.memberReqs = append(c.memberReqs, ms.Requests)
	}
	return c
}
