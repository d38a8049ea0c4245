package main

import (
	"io"
	"mime"
	"net/http"
	"strconv"
	"sync/atomic"
)

// reqIDHeader tags each replayed request; fleet forwards it to the
// member, so spans on both tiers share the ID.
const reqIDHeader = "X-Bench-Request"

// verdict classifies one response.
type verdict uint8

const (
	vOK        verdict = iota
	vRejected          // 429 from defend, where the workload allows it
	vStatus5xx         // 5xx: the stack failed the request
	vBadStatus         // any other unexpected status
	vBadHeader         // 200 without X-Cache, or not application/json
	vBadBody           // body shorter/longer than Content-Length, or not a JSON object
)

// classify checks one response's status and headers. Every record the
// stack serves gets 200 with an X-Cache disposition and a JSON body
// (WildcardOrigin answers every path with application/json); only a
// defended stack may refuse with 429.
func classify(status int, xcache, ctype string, allow429 bool) verdict {
	switch {
	case status == http.StatusOK:
		mt, _, _ := mime.ParseMediaType(ctype)
		if xcache == "" || mt != "application/json" {
			return vBadHeader
		}
		return vOK
	case status == http.StatusTooManyRequests && allow429:
		return vRejected
	case status >= 500:
		return vStatus5xx
	default:
		return vBadStatus
	}
}

// outcomes tallies what the load generator saw.
type outcomes struct {
	Sent      int64 `json:"sent"`
	Transport int64 `json:"transport_errors"`
	Status5xx int64 `json:"status_5xx"`
	Rejected  int64 `json:"rejected_429"`
	BadStatus int64 `json:"bad_status"`
	BadHeader int64 `json:"bad_header"`
	BadBody   int64 `json:"bad_body"`
}

// failed counts failed requests: transport errors, 5xx, and responses
// that fail their check. 429s are kept apart.
func (o outcomes) failed() int64 {
	return o.Transport + o.Status5xx + o.BadStatus + o.BadHeader + o.BadBody
}

// incorrect counts responses whose content is wrong, as opposed to
// requests the stack failed to answer.
func (o outcomes) incorrect() int64 { return o.BadStatus + o.BadHeader + o.BadBody }

func (o outcomes) errorRate() float64 { return ratio(float64(o.failed()), float64(o.Sent)) }

func (o outcomes) minus(b outcomes) outcomes {
	return outcomes{
		Sent: o.Sent - b.Sent, Transport: o.Transport - b.Transport,
		Status5xx: o.Status5xx - b.Status5xx, Rejected: o.Rejected - b.Rejected,
		BadStatus: o.BadStatus - b.BadStatus, BadHeader: o.BadHeader - b.BadHeader,
		BadBody: o.BadBody - b.BadBody,
	}
}

// checkingTransport is the load generator's RoundTripper: it tags each
// request with an ID and checks each response, including its body.
type checkingTransport struct {
	base     http.RoundTripper
	allow429 bool
	seq      atomic.Int64
	counts   [vBadBody + 1]atomic.Int64
	sent     atomic.Int64
	errs     atomic.Int64
}

func (t *checkingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r2 := *req
	r2.Header = req.Header.Clone()
	r2.Header.Set(reqIDHeader, strconv.FormatInt(t.seq.Add(1), 10))
	t.sent.Add(1)
	resp, err := t.base.RoundTrip(&r2)
	if err != nil {
		t.errs.Add(1)
		return nil, err
	}
	v := classify(resp.StatusCode, resp.Header.Get("X-Cache"), resp.Header.Get("Content-Type"), t.allow429)
	if v != vOK || req.Method == http.MethodHead {
		t.counts[v].Add(1)
		return resp, nil
	}
	resp.Body = &checkedBody{rc: resp.Body, want: resp.ContentLength, t: t}
	return resp, nil
}

// snapshot returns the running tallies.
func (t *checkingTransport) snapshot() outcomes {
	return outcomes{
		Sent: t.sent.Load(), Transport: t.errs.Load(),
		Status5xx: t.counts[vStatus5xx].Load(), Rejected: t.counts[vRejected].Load(),
		BadStatus: t.counts[vBadStatus].Load(), BadHeader: t.counts[vBadHeader].Load(),
		BadBody: t.counts[vBadBody].Load(),
	}
}

// checkedBody verifies a 200 body on Close: its length matches
// Content-Length and it is a JSON object.
type checkedBody struct {
	rc    io.ReadCloser
	want  int64
	n     int64
	first byte
	t     *checkingTransport
	done  bool
}

func (b *checkedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if n > 0 && b.n == 0 {
		b.first = p[0]
	}
	b.n += int64(n)
	return n, err
}

func (b *checkedBody) Close() error {
	if !b.done {
		b.done = true
		v := vOK
		if (b.want >= 0 && b.n != b.want) || b.first != '{' {
			v = vBadBody
		}
		b.t.counts[v].Add(1)
	}
	return b.rc.Close()
}
