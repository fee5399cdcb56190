package main

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/oscar-overlay/oscar/internal/keyspace"
	"github.com/oscar-overlay/oscar/internal/transport"
)

// wireOps are the data-path wire ops the per-layer metrics break out.
var wireOps = []transport.Op{
	transport.OpFindOwner, transport.OpGet, transport.OpPut,
	transport.OpReplicate, transport.OpKeyHash, transport.OpScan,
}

type outcome uint8

const (
	outcomeOK outcome = iota
	outcomeRefused
	outcomeOverloaded
	outcomeUnreachable
	outcomeOtherErr
)

// wireCode numbers a wire op for a span: 1+its index in wireOps, or 0 for
// any other op. Spans are kept small because a traced window records
// millions of them.
type wireCode uint8

func codeOf(op transport.Op) wireCode {
	for i, w := range wireOps {
		if w == op {
			return wireCode(i + 1)
		}
	}
	return 0
}

// callSpan is one outbound CallCtx. to is the callee's endpoint index.
type callSpan struct {
	start, end int64
	key        keyspace.Key
	opID       uint64
	to         uint16
	op         wireCode
	outcome    outcome
}

// handlerSpan is one inbound request served by the handler of endpoint at.
type handlerSpan struct {
	start, end int64
	key        keyspace.Key
	at         uint16
	op         wireCode
}

// tracer records spans from outside the program: it wraps each node's
// transport endpoint (the NodeConfig.WrapTransport hook) and, while it is
// on, times the outbound calls of sampled ops and of no op, and every
// inbound handler run (keeping spans for sampled keys). Spans stay in
// memory until the window ends.
type tracer struct {
	clock *clock
	on    atomic.Bool
	mu    sync.RWMutex
	eps   []*tracedEndpoint
	index map[transport.Addr]uint16
}

func newTracer(c *clock) *tracer {
	return &tracer{clock: c, index: make(map[transport.Addr]uint16)}
}

func (t *tracer) wrap(inner transport.Transport) transport.Transport {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := &tracedEndpoint{Transport: inner, t: t, id: uint16(len(t.eps))}
	t.eps = append(t.eps, e)
	t.index[inner.Addr()] = e.id
	return e
}

// endpoint returns the index of the endpoint at addr.
func (t *tracer) endpoint(addr transport.Addr) uint16 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.index[addr]
}

// tracedEndpoint is one node's wrapped endpoint. Each keeps its own span
// buffers so that nodes do not contend on one lock.
type tracedEndpoint struct {
	transport.Transport
	t  *tracer
	id uint16

	mu       sync.Mutex
	calls    []callSpan
	handlers []handlerSpan
	// active counts the handler runs in progress, busySince is when the
	// count last rose from zero, and busy sums the time it was not zero.
	active    int
	busySince int64
	busy      int64
}

// spanKey is the request field that links a call to the handler run that
// served it: the key, the first shipped item's key, or a scan's start.
func spanKey(req *transport.Request) keyspace.Key {
	switch {
	case len(req.Items) > 0:
		return req.Items[0].Key
	case req.Op == transport.OpScan:
		return req.Range.Start
	}
	return req.Key
}

func (e *tracedEndpoint) Call(addr transport.Addr, req *transport.Request) (*transport.Response, error) {
	return e.CallCtx(context.Background(), addr, req)
}

func (e *tracedEndpoint) CallCtx(ctx context.Context, addr transport.Addr, req *transport.Request) (*transport.Response, error) {
	if !e.t.on.Load() {
		return e.Transport.CallCtx(ctx, addr, req)
	}
	id, _ := ctx.Value(opIDKey{}).(uint64)
	if id == notSampled {
		return e.Transport.CallCtx(ctx, addr, req)
	}
	start := e.t.clock.now()
	resp, err := e.Transport.CallCtx(ctx, addr, req)
	sp := callSpan{start: start, end: e.t.clock.now(), key: spanKey(req), opID: id, to: e.t.endpoint(addr), op: codeOf(req.Op)}
	switch {
	case errors.Is(err, transport.ErrOverloaded):
		sp.outcome = outcomeOverloaded
	case errors.Is(err, transport.ErrUnreachable):
		sp.outcome = outcomeUnreachable
	case err != nil:
		sp.outcome = outcomeOtherErr
	case resp == nil || !resp.OK:
		sp.outcome = outcomeRefused
	}
	e.mu.Lock()
	e.calls = append(e.calls, sp)
	e.mu.Unlock()
	return resp, err
}

// Serve times every handler run. The node's busy time (the union of its
// runs, so concurrent runs count once) is accumulated for every run; a
// span is kept only for runs on sampled keys.
func (e *tracedEndpoint) Serve(h transport.Handler) {
	e.Transport.Serve(func(req *transport.Request) *transport.Response {
		if !e.t.on.Load() {
			return h(req)
		}
		e.mu.Lock()
		start := e.t.clock.now()
		if e.active == 0 {
			e.busySince = start
		}
		e.active++
		e.mu.Unlock()
		resp := h(req)
		key := spanKey(req)
		e.mu.Lock()
		end := e.t.clock.now()
		if e.active--; e.active == 0 {
			e.busy += end - e.busySince
		}
		if sampledKey(key) {
			e.handlers = append(e.handlers, handlerSpan{start: start, end: end, key: key, at: e.id, op: codeOf(req.Op)})
		}
		e.mu.Unlock()
		return resp
	})
}

// sampledKey selects the handler runs whose spans are kept: one key in
// traceEvery, chosen by a hash both sides of a call can compute.
func sampledKey(k keyspace.Key) bool { return splitmix(uint64(k))%traceEvery == 0 }

// spans hands over every recorded span and each endpoint's busy time.
// Call it once the tracer is off.
func (t *tracer) spans() (calls []callSpan, handlers []handlerSpan, busy []int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.eps {
		e.mu.Lock()
	}
	defer func() {
		for _, e := range t.eps {
			e.mu.Unlock()
		}
	}()
	nc, nh := 0, 0
	for _, e := range t.eps {
		nc, nh = nc+len(e.calls), nh+len(e.handlers)
	}
	calls, handlers = make([]callSpan, 0, nc), make([]handlerSpan, 0, nh)
	for _, e := range t.eps {
		calls, handlers = append(calls, e.calls...), append(handlers, e.handlers...)
		e.calls, e.handlers = nil, nil
		busy = append(busy, e.busy)
	}
	return calls, handlers, busy
}

// linkOrder orders spans by callee, wire op and key, then by start: the
// order in which wireTimes joins calls to the handler runs that served
// them.
func linkOrder(at uint16, op wireCode, key keyspace.Key, start int64) [4]uint64 {
	return [4]uint64{uint64(at), uint64(op), uint64(key), uint64(start)}
}

// wireTimes links each successful data-path call to the handler run that
// served it and returns, per wire op, the call's duration minus the run's:
// codec, syscalls and queueing. On the in-memory fabric handlers run
// synchronously inside the call; on TCP they run on the server's
// goroutines, so a call is linked to the next unclaimed handler run of the
// same wire op and key at the callee that lies within the call. calls and
// handlers are reordered.
func wireTimes(calls []callSpan, handlers []handlerSpan) map[wireCode][]float64 {
	slices.SortFunc(calls, func(a, b callSpan) int {
		return cmpLink(linkOrder(a.to, a.op, a.key, a.start), linkOrder(b.to, b.op, b.key, b.start))
	})
	slices.SortFunc(handlers, func(a, b handlerSpan) int {
		return cmpLink(linkOrder(a.at, a.op, a.key, a.start), linkOrder(b.at, b.op, b.key, b.start))
	})
	wire := make(map[wireCode][]float64)
	h := 0
	for _, c := range calls {
		if c.opID == 0 || c.op == 0 || (c.outcome != outcomeOK && c.outcome != outcomeRefused) {
			continue
		}
		// Skip runs that sort before this call: another link, or an
		// earlier start than any later call of this link could contain.
		cl := linkOrder(c.to, c.op, c.key, c.start)
		for h < len(handlers) && cmpLink(linkOrder(handlers[h].at, handlers[h].op, handlers[h].key, handlers[h].start), cl) < 0 {
			h++
		}
		if h == len(handlers) {
			break
		}
		r := handlers[h]
		if r.at == c.to && r.op == c.op && r.key == c.key && r.start <= c.end && r.end <= c.end {
			wire[c.op] = append(wire[c.op], float64((c.end-c.start)-(r.end-r.start))/1e3)
			h++
		}
	}
	return wire
}

func cmpLink(a, b [4]uint64) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// layerMetrics derives the traced per-layer metrics from the spans of one
// window, which ran from lo to hi. It reorders calls and handlers.
func layerMetrics(ops []opSpan, calls []callSpan, handlers []handlerSpan, busy []int64, lo, hi int64, m map[string]float64) {
	windowNs := hi - lo
	nops := float64(max(len(ops), 1))
	us := func(ns int64) float64 { return float64(ns) / 1e3 }

	var background, overloaded, unreachable int
	rtt := make(map[wireCode][]float64)
	tagged := make(map[wireCode]int)
	for _, c := range calls {
		switch c.outcome {
		case outcomeOverloaded:
			overloaded++
		case outcomeUnreachable:
			unreachable++
		}
		if c.opID == 0 {
			background++
			continue
		}
		tagged[c.op]++
		if c.outcome == outcomeOK || c.outcome == outcomeRefused {
			rtt[c.op] = append(rtt[c.op], us(c.end-c.start))
		}
	}
	ncalls := float64(max(len(calls), 1))
	m["transport.error_ratio.overloaded"] = float64(overloaded) / ncalls
	m["transport.error_ratio.unreachable"] = float64(unreachable) / ncalls
	m["transport.background_calls_s"] = float64(background) / (float64(windowNs) / 1e9)

	// Requester side: self time, message cost, replica fanout. Ops and
	// calls are walked together in op-id order.
	slices.SortFunc(ops, func(a, b opSpan) int { return cmp.Compare(a.id, b.id) })
	slices.SortFunc(calls, func(a, b callSpan) int { return cmp.Compare(a.opID, b.opID) })
	replicate := codeOf(transport.OpReplicate)
	var self, fanout []float64
	var costs int
	var ivs []interval
	next := 0
	for _, o := range ops {
		costs += o.cost
		for next < len(calls) && calls[next].opID < o.id {
			next++
		}
		ivs = ivs[:0]
		first, last := int64(-1), int64(-1)
		for ; next < len(calls) && calls[next].opID == o.id; next++ {
			c := calls[next]
			ivs = append(ivs, interval{c.start, c.end})
			if c.op == replicate {
				if first < 0 || c.start < first {
					first = c.start
				}
				last = max(last, c.end)
			}
		}
		self = append(self, us(o.end-o.start-covered(ivs, o.start, o.end)))
		if o.kind == opPut && first >= 0 {
			fanout = append(fanout, us(last-first))
		}
	}
	m["p2p.requester_self_us_p50"] = median(self)
	m["p2p.msgs_per_op"] = float64(costs) / nops
	m["p2p.replica_fanout_us_p50"] = median(fanout)

	hlat := make(map[wireCode][]float64)
	for _, h := range handlers {
		hlat[h.op] = append(hlat[h.op], us(h.end-h.start))
	}
	var share float64
	for _, b := range busy {
		share = max(share, float64(b)/float64(windowNs))
	}
	m["handler.busy_share_max"] = share

	wire := wireTimes(calls, handlers)
	for _, w := range wireOps {
		code := codeOf(w)
		r := summarize(rtt[code])
		m["transport."+string(w)+".calls_per_op"] = float64(tagged[code]) / nops
		m["transport."+string(w)+".rtt_us_p50"] = r.p50
		m["transport."+string(w)+".rtt_us_p99"] = r.tail
		m["transport."+string(w)+".wire_us_p50"] = median(wire[code])
		h := summarize(hlat[code])
		m["handler."+string(w)+".us_p50"] = h.p50
		m["handler."+string(w)+".us_p99"] = h.tail
	}
	m["routing.find_owner_per_op"] = float64(tagged[codeOf(transport.OpFindOwner)]) / nops
}
