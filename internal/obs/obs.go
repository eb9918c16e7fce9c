// Package obs is the serving stack's zero-dependency observability
// layer: request-scoped span traces carried via context.Context,
// a lock-striped ring buffer of completed traces with tail-latency
// exemplars, Prometheus text-exposition helpers (writer and linter),
// and log/slog construction shared by the commands.
//
// The design center is the nil-sink fast path: every method on a nil
// *Trace or nil *Recorder is a no-op that touches no clock and
// allocates nothing, so instrumented hot paths (the L1 block-cache
// hit) cost the same with tracing disabled as they did before the
// layer existed. With a sink attached, a trace is pooled, its spans
// live in a fixed-capacity array, and recording copies into reusable
// ring slots — steady-state tracing is allocation-free too.
package obs

import (
	"context"
	"time"
)

// Stage names: where a block-serving request spends its time. These
// are the label values of the apcc_block_stage_seconds histogram and
// the span names in /debug/trace.
const (
	StageRoute      = "route"        // entry resolution, id parse, request validation
	StageBuild      = "build"        // (workload,codec) container build or warm restore
	StageL1         = "l1"           // block-cache lookup; on a miss this span covers the compute
	StageL2Read     = "l2-read"      // store ReadAt through the container index
	StageWordRead   = "l2-word-read" // sub-block word-span read through the v3 group directory
	StageDecode     = "decode"       // codec DecompressAppend + CRC verify of one block
	StageReadahead  = "readahead"    // speculative successor verify + L1 admission
	StageRebuild    = "rebuild"      // full recompress of the plain image (incl. pool queueing)
	StageWrite      = "write"        // response headers + payload write
	StageQuarantine = "quarantine"   // store object detached as corrupt (zero-duration event)
)

// Span outcomes.
const (
	OutcomeOK        = "ok"
	OutcomeHit       = "hit"
	OutcomeMiss      = "miss"
	OutcomeCoalesced = "coalesced"
	OutcomeError     = "error"
	OutcomeCorrupt   = "corrupt"
)

// maxSpans bounds a trace's span count. Traces never grow past it:
// Begin drops further spans (marking the trace truncated) so one
// pathological request cannot balloon the pool's retained memory.
const maxSpans = 64

// Span is one timed stage within a trace. Parent indexes the enclosing
// span within the same trace (-1 for a root-level span), forming the
// span tree /debug/trace renders. Durations are nanoseconds relative
// to the trace clock; ExclNS is DurNS minus the summed durations of
// direct children — the time attributable to this stage alone, which
// is what the per-stage histograms observe (so nested stages never
// double-count).
//
// Root-level spans tile the trace: the first starts with the trace and
// each later one where the previous one ended. The handler time between
// two stages (call overhead, and any time the goroutine spends
// descheduled there) is thereby charged to the stage it leads into
// rather than left unattributed.
type Span struct {
	Stage   string `json:"stage"`
	Outcome string `json:"outcome"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	ExclNS  int64  `json:"excl_ns"`

	childNS int64 // summed DurNS of direct children; finalized before End
}

// Trace is one request's span collection. It is not safe for
// concurrent use: spans must Begin and End on goroutines ordered by
// happens-before (the request goroutine, including compute callbacks
// it runs synchronously). All methods are nil-receiver safe no-ops,
// which is the tracing-disabled fast path.
type Trace struct {
	ID       uint64 `json:"id"`
	Workload string `json:"workload"`
	Codec    string `json:"codec"`
	Block    int    `json:"block"`
	Outcome  string `json:"outcome"`
	TotalNS  int64  `json:"total_ns"`

	start     time.Time
	spans     []Span
	cur       int   // index of the innermost open span, -1 at root
	rootEnd   int64 // where the latest root-level span ended, in ns
	truncated bool
}

// NewTrace returns a standalone trace (tests and tools; the serving
// tier gets pooled traces from a Recorder).
func NewTrace(id uint64) *Trace {
	t := &Trace{spans: make([]Span, 0, maxSpans)}
	t.reset(id)
	return t
}

func (t *Trace) reset(id uint64) {
	t.ID = id
	t.Workload, t.Codec, t.Outcome = "", "", ""
	t.Block = 0
	t.TotalNS = 0
	t.start = time.Now()
	t.spans = t.spans[:0]
	t.cur = -1
	t.rootEnd = 0
	t.truncated = false
}

// SetLabels attaches the request identity once it is known (the codec
// name, for example, resolves only after the entry is built).
func (t *Trace) SetLabels(workload, codec string, block int) {
	if t == nil {
		return
	}
	t.Workload, t.Codec, t.Block = workload, codec, block
}

// SpanHandle is the value returned by Begin; End closes the span. A
// zero handle (from a nil trace or a truncated one) is a no-op.
type SpanHandle struct {
	t   *Trace
	idx int32
}

// Begin opens a span as a child of the innermost open span, or at root
// level where the previous root span ended. On a nil trace it returns a
// no-op handle without reading the clock.
func (t *Trace) Begin(stage string) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	if len(t.spans) == cap(t.spans) {
		t.truncated = true
		return SpanHandle{}
	}
	start := t.rootEnd
	if t.cur >= 0 {
		start = int64(time.Since(t.start))
	}
	idx := len(t.spans)
	t.spans = append(t.spans, Span{
		Stage:   stage,
		Outcome: OutcomeOK,
		Parent:  t.cur,
		StartNS: start,
	})
	t.cur = idx
	return SpanHandle{t: t, idx: int32(idx)}
}

// End closes the span with the given outcome, finalizing its duration
// and exclusive time and crediting the duration to the parent's child
// total.
func (h SpanHandle) End(outcome string) {
	if h.t == nil {
		return
	}
	h.endAt(int64(time.Since(h.t.start)), outcome)
}

// endAt closes the span at now (ns on the trace clock).
func (h SpanHandle) endAt(now int64, outcome string) {
	if h.t == nil {
		return
	}
	sp := &h.t.spans[h.idx]
	sp.DurNS = now - sp.StartNS
	sp.ExclNS = sp.DurNS - sp.childNS
	sp.Outcome = outcome
	h.t.cur = sp.Parent
	if sp.Parent >= 0 {
		h.t.spans[sp.Parent].childNS += sp.DurNS
	} else {
		h.t.rootEnd = sp.StartNS + sp.DurNS
	}
}

// Event records a zero-duration marker span (a quarantine, for
// example) under the innermost open span.
func (t *Trace) Event(stage, outcome string) {
	if t == nil || len(t.spans) == cap(t.spans) {
		return
	}
	t.spans = append(t.spans, Span{
		Stage:   stage,
		Outcome: outcome,
		Parent:  t.cur,
		StartNS: int64(time.Since(t.start)),
	})
}

// Finish stamps the trace's end-to-end duration and outcome. Call
// after the last span has ended and before Recorder.Record.
func (t *Trace) Finish(outcome string) {
	if t == nil {
		return
	}
	t.Outcome = outcome
	t.TotalNS = int64(time.Since(t.start))
}

// FinishWith ends h, the request's last open span, and finishes the
// trace at the same clock reading. The total then ends exactly where
// the last stage does: no instant between the two, in which the
// goroutine might be descheduled, goes unattributed.
func (t *Trace) FinishWith(h SpanHandle, spanOutcome, outcome string) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.start))
	h.endAt(now, spanOutcome)
	t.Outcome = outcome
	t.TotalNS = now
}

// Spans exposes the recorded spans (read-only; valid until the trace
// is handed back to its recorder via Record).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// TraceID returns the trace's id, 0 for a nil trace.
func (t *Trace) TraceID() uint64 {
	if t == nil {
		return 0
	}
	return t.ID
}

// Truncated reports whether Begin dropped spans past the per-trace cap.
func (t *Trace) Truncated() bool { return t != nil && t.truncated }

type ctxKey struct{}

// WithTrace attaches a trace to the context. A nil trace returns ctx
// unchanged, so the disabled path allocates nothing.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the attached trace, nil when absent (or ctx is
// nil). The nil result flows into Begin/Event/Finish as no-ops.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
