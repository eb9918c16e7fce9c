package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestSpanTree: nesting via Begin/End produces correct parent links
// and exclusive times that sum to the root span's duration.
func TestSpanTree(t *testing.T) {
	tr := NewTrace(7)
	root := tr.Begin(StageL1)
	child := tr.Begin(StageL2Read)
	time.Sleep(time.Millisecond)
	grand := tr.Begin(StageDecode)
	time.Sleep(time.Millisecond)
	grand.End(OutcomeOK)
	child.End(OutcomeOK)
	root.End(OutcomeMiss)
	tr.Finish(OutcomeMiss)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Parent != -1 || spans[1].Parent != 0 || spans[2].Parent != 1 {
		t.Fatalf("parents = %d,%d,%d, want -1,0,1", spans[0].Parent, spans[1].Parent, spans[2].Parent)
	}
	if spans[0].Outcome != OutcomeMiss {
		t.Errorf("root outcome = %q", spans[0].Outcome)
	}
	// Exclusive times of the whole tree sum to the root's duration:
	// each child's DurNS was subtracted exactly once from its parent.
	var excl int64
	for _, sp := range spans {
		if sp.ExclNS < 0 {
			t.Errorf("span %s: negative exclusive %d", sp.Stage, sp.ExclNS)
		}
		excl += sp.ExclNS
	}
	if excl != spans[0].DurNS {
		t.Errorf("sum excl = %d, want root dur %d", excl, spans[0].DurNS)
	}
	if tr.TotalNS < spans[0].DurNS {
		t.Errorf("total %d < root dur %d", tr.TotalNS, spans[0].DurNS)
	}
}

// TestNilTraceNoops: the disabled fast path is nil-receiver safe and
// allocation-free end to end, including context round-trips.
func TestNilTraceNoops(t *testing.T) {
	var tr *Trace
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Begin(StageL1)
		sp.End(OutcomeHit)
		tr.Event(StageQuarantine, OutcomeCorrupt)
		tr.Finish(OutcomeHit)
		tr.SetLabels("w", "c", 1)
		c2 := WithTrace(ctx, tr)
		if FromContext(c2) != nil {
			t.Fatal("nil trace came back non-nil")
		}
		if tr.TraceID() != 0 || tr.Spans() != nil {
			t.Fatal("nil trace leaked state")
		}
	})
	if allocs != 0 {
		t.Errorf("nil-sink path allocates %v/op, want 0", allocs)
	}
	var rec *Recorder
	if rec.StartTrace() != nil {
		t.Fatal("nil recorder started a trace")
	}
	rec.Record(nil)
	if rec.Snapshot(10) != nil || rec.Exemplars() != nil {
		t.Fatal("nil recorder returned records")
	}
}

// TestTraceTruncation: a trace drops spans past the cap instead of
// growing, and reports it.
func TestTraceTruncation(t *testing.T) {
	tr := NewTrace(1)
	for i := 0; i < maxSpans+10; i++ {
		tr.Begin(StageDecode).End(OutcomeOK)
	}
	if len(tr.Spans()) != maxSpans {
		t.Fatalf("got %d spans, want cap %d", len(tr.Spans()), maxSpans)
	}
	if !tr.Truncated() {
		t.Fatal("truncation not reported")
	}
}

// TestRecorderRing: the ring keeps the newest records, snapshot
// returns them newest-first, and the slowest request survives as an
// exemplar after the ring has cycled past it.
func TestRecorderRing(t *testing.T) {
	rec := NewRecorder(16, 2)
	slowID := uint64(0)
	for i := 0; i < 100; i++ {
		tr := rec.StartTrace()
		tr.SetLabels("fft", "dict", i)
		sp := tr.Begin(StageL1)
		if i == 3 { // make one early trace the slowest of the run
			time.Sleep(5 * time.Millisecond)
			slowID = tr.TraceID()
		}
		sp.End(OutcomeHit)
		tr.Finish(OutcomeHit)
		rec.Record(tr)
	}
	snap := rec.Snapshot(8)
	if len(snap) != 8 {
		t.Fatalf("snapshot returned %d, want 8", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].ID > snap[i-1].ID {
			t.Fatalf("snapshot not newest-first: %d before %d", snap[i-1].ID, snap[i].ID)
		}
	}
	if snap[0].ID != 100 {
		t.Errorf("newest id = %d, want 100", snap[0].ID)
	}
	for _, r := range snap {
		if r.ID == slowID {
			t.Errorf("trace %d should have been overwritten in a 16-slot ring", slowID)
		}
		if len(r.Spans) != 1 || r.Spans[0].Stage != StageL1 {
			t.Errorf("record %d spans = %+v", r.ID, r.Spans)
		}
	}
	ex := rec.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("got %d exemplars, want 2", len(ex))
	}
	if ex[0].ID != slowID {
		t.Errorf("slowest exemplar id = %d, want %d", ex[0].ID, slowID)
	}
	if ex[0].TotalNS < ex[1].TotalNS {
		t.Error("exemplars not slowest-first")
	}
	st := rec.Stats()
	if st.Recorded != 100 || st.Truncated != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestRecorderSteadyStateAllocs: with the pool warm and ring slots
// populated, a start→span→finish→record cycle allocates only the
// context value.
func TestRecorderSteadyStateAllocs(t *testing.T) {
	rec := NewRecorder(64, 2)
	cycle := func() {
		tr := rec.StartTrace()
		sp := tr.Begin(StageL1)
		sp.End(OutcomeHit)
		tr.Finish(OutcomeHit)
		rec.Record(tr)
	}
	for i := 0; i < 200; i++ { // warm pool, ring slots and exemplars
		cycle()
	}
	allocs := testing.AllocsPerRun(200, cycle)
	if allocs > 0 {
		t.Errorf("steady-state record allocates %v/op, want 0", allocs)
	}
}

// TestContextRoundTrip: WithTrace/FromContext carry the trace.
func TestContextRoundTrip(t *testing.T) {
	tr := NewTrace(9)
	ctx := WithTrace(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %p, want %p", got, tr)
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("background context produced a trace")
	}
}

// TestEscapeLabelValue covers the three escapes the format requires.
func TestEscapeLabelValue(t *testing.T) {
	got := EscapeLabelValue("a\\b\"c\nd")
	want := `a\\b\"c\nd`
	if got != want {
		t.Errorf("escape = %q, want %q", got, want)
	}
	if s := EscapeLabelValue("plain"); s != "plain" {
		t.Errorf("plain escaped to %q", s)
	}
}

// TestParseLevelAndLogger covers the flag surface of the log helpers.
func TestParseLevelAndLogger(t *testing.T) {
	for _, bad := range []string{"verbose", "trace"} {
		if _, err := ParseLevel(bad); err == nil {
			t.Errorf("ParseLevel(%q) accepted", bad)
		}
	}
	var sb strings.Builder
	lg, err := NewLogger(&sb, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hello", "k", 1)
	if !strings.Contains(sb.String(), `"msg":"hello"`) {
		t.Errorf("json log output %q", sb.String())
	}
	if _, err := NewLogger(&sb, "info", "yaml"); err == nil {
		t.Error("bad format accepted")
	}
	Discard.Info("dropped")
}

// TestRootSpansTileTrace: root-level spans start where the previous one
// ended (the first at the trace start), and FinishWith ends the last
// span and the trace on one clock reading, so the exclusive times of a
// request whose work all sits in root spans sum to its total exactly.
func TestRootSpansTileTrace(t *testing.T) {
	tr := NewTrace(3)
	a := tr.Begin(StageRoute)
	a.End(OutcomeOK)
	time.Sleep(time.Millisecond) // handler time between stages
	b := tr.Begin(StageL1)
	child := tr.Begin(StageL2Read)
	child.End(OutcomeOK)
	b.End(OutcomeMiss)
	c := tr.Begin(StageWrite)
	tr.FinishWith(c, OutcomeOK, OutcomeMiss)

	spans := tr.Spans()
	if spans[0].StartNS != 0 {
		t.Errorf("first root span starts at %d, want 0", spans[0].StartNS)
	}
	var excl int64
	prevEnd := int64(0)
	for _, sp := range spans {
		excl += sp.ExclNS
		if sp.Parent >= 0 {
			continue
		}
		if sp.StartNS != prevEnd {
			t.Errorf("root span %s starts at %d, previous root ended at %d", sp.Stage, sp.StartNS, prevEnd)
		}
		prevEnd = sp.StartNS + sp.DurNS
	}
	if spans[1].DurNS < int64(time.Millisecond) {
		t.Errorf("l1 span %dns does not carry the gap before it", spans[1].DurNS)
	}
	if excl != tr.TotalNS || prevEnd != tr.TotalNS {
		t.Errorf("sum excl = %d, last root end = %d, total = %d; want all equal", excl, prevEnd, tr.TotalNS)
	}
	if tr.Outcome != OutcomeMiss || spans[2].Outcome != OutcomeOK {
		t.Errorf("outcomes: trace %q, write %q", tr.Outcome, spans[2].Outcome)
	}
}
