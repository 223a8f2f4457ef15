//! The deterministic span tracer and its exporters.
//!
//! A [`Tracer`] records a flat stream of begin/end/instant events, each
//! stamped with **simulated time** (nanoseconds, advanced explicitly by the
//! instrumentation) and a **monotonic sequence number**. Wall clocks never
//! appear, so two runs with the same seed and configuration produce
//! byte-identical exports — the property the CI telemetry gate `cmp`s.
//!
//! Spans nest strictly (last opened, first closed), which matches the shape
//! of a pipeline run:
//!
//! ```text
//! run
//! ├── phase (Calibration … Validation)
//! │   └── oracle batch (instant: pairs / cached / measured)
//! ├── observable query (per ObservableKind)
//! ├── campaign job (post-hoc, per journal outcome)
//! └── eval cell (post-hoc, per scenario x tool)
//! ```
//!
//! Three exporters read the stream back out:
//!
//! * [`Tracer::chrome_trace`] — Chrome trace-event JSON in the streaming
//!   array form (one event per line, trailing commas), loadable directly in
//!   Perfetto / `chrome://tracing`. Timestamps are printed with integer
//!   math (`ns / 1000` microseconds with a 3-digit fraction) so no float
//!   formatting can perturb the bytes.
//! * [`Tracer::jsonl_log`] — one [`crate::jsonl`] object per event, for
//!   machine consumption alongside the campaign journal.
//! * [`Tracer::hot_span_summary`] — a text table of per-kind self/total
//!   cost, the "where did the budget go" view.

use std::fmt;

use crate::jsonl::{self, JsonValue};

/// The kind of work a span covers. Doubles as the Chrome trace category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// A whole pipeline run (one `uncover`, one eval grid, one campaign).
    Run,
    /// One engine phase (Calibration through Validation).
    Phase,
    /// One batched conflict-oracle classification.
    OracleBatch,
    /// One observable-channel consultation.
    ObservableQuery,
    /// One campaign job (reassembled post-hoc from the journal).
    CampaignJob,
    /// One eval-grid cell (scenario x tool, reassembled post-hoc).
    EvalCell,
}

impl SpanKind {
    /// Every kind, in declaration order.
    pub const ALL: [SpanKind; 6] = [
        SpanKind::Run,
        SpanKind::Phase,
        SpanKind::OracleBatch,
        SpanKind::ObservableQuery,
        SpanKind::CampaignJob,
        SpanKind::EvalCell,
    ];

    /// Stable lower-snake name used in every exporter.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Phase => "phase",
            SpanKind::OracleBatch => "oracle_batch",
            SpanKind::ObservableQuery => "observable_query",
            SpanKind::CampaignJob => "campaign_job",
            SpanKind::EvalCell => "eval_cell",
        }
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Handle to an open span, returned by [`Tracer::begin`] and consumed by
/// [`Tracer::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    Begin,
    End,
    Instant,
}

#[derive(Debug, Clone, PartialEq)]
struct TraceEvent {
    seq: u64,
    ts_ns: u64,
    mark: Mark,
    kind: SpanKind,
    name: String,
    args: Vec<(&'static str, u64)>,
}

/// A deterministic span recorder.
///
/// The tracer owns a simulated clock (`now_ns`, advanced only via
/// [`Tracer::advance_ns`]) and a sequence counter. Events are appended in
/// call order and never reordered, so the exported bytes are a pure function
/// of the instrumentation calls — which in this workspace are themselves a
/// pure function of the run seed.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tracer {
    events: Vec<TraceEvent>,
    stack: Vec<usize>,
    seq: u64,
    now_ns: u64,
}

impl Tracer {
    /// A fresh tracer at simulated time zero.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Advances the simulated clock. Saturates instead of wrapping.
    pub fn advance_ns(&mut self, delta: u64) {
        self.now_ns = self.now_ns.saturating_add(delta);
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of spans currently open.
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }

    fn push(&mut self, mark: Mark, kind: SpanKind, name: &str, args: &[(&'static str, u64)]) {
        self.seq += 1;
        self.events.push(TraceEvent {
            seq: self.seq,
            ts_ns: self.now_ns,
            mark,
            kind,
            name: name.to_string(),
            args: args.to_vec(),
        });
    }

    /// Opens a span at the current simulated time.
    pub fn begin(&mut self, kind: SpanKind, name: &str) -> SpanId {
        self.begin_with(kind, name, &[])
    }

    /// Opens a span carrying extra numeric arguments.
    pub fn begin_with(
        &mut self,
        kind: SpanKind,
        name: &str,
        args: &[(&'static str, u64)],
    ) -> SpanId {
        self.push(Mark::Begin, kind, name, args);
        let id = self.events.len() - 1;
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes a span at the current simulated time.
    ///
    /// # Panics
    ///
    /// Spans must close in LIFO order; panics if `id` is not the innermost
    /// open span. That strictness is what lets the Chrome exporter emit
    /// plain `B`/`E` events that any trace viewer can pair back up.
    pub fn end(&mut self, id: SpanId) {
        self.end_with(id, &[]);
    }

    /// Closes a span, attaching extra numeric arguments to the end event.
    ///
    /// # Panics
    ///
    /// Same LIFO requirement as [`Tracer::end`].
    pub fn end_with(&mut self, id: SpanId, args: &[(&'static str, u64)]) {
        let top = self.stack.pop().expect("end() with no span open");
        assert_eq!(top, id.0, "spans must close innermost-first");
        let (kind, name) = {
            let begin = &self.events[id.0];
            (begin.kind, begin.name.clone())
        };
        self.push(Mark::End, kind, &name, args);
    }

    /// Records a zero-duration instant event at the current simulated time.
    pub fn instant(&mut self, kind: SpanKind, name: &str, args: &[(&'static str, u64)]) {
        self.push(Mark::Instant, kind, name, args);
    }

    /// Exports the stream as Chrome trace-event JSON.
    ///
    /// Uses the streaming array form documented by the Trace Event Format:
    /// one event object per line, every line comma-terminated, closing `]`
    /// last. Perfetto and `chrome://tracing` both accept it, and the form
    /// makes an interrupted run's trace a literal byte prefix of the full
    /// run's trace (up to the interruption events).
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        for ev in &self.events {
            out.push_str("{\"name\":");
            jsonl::push_escaped(&mut out, &ev.name);
            out.push_str(",\"cat\":");
            jsonl::push_escaped(&mut out, ev.kind.as_str());
            let ph = match ev.mark {
                Mark::Begin => "B",
                Mark::End => "E",
                Mark::Instant => "i",
            };
            out.push_str(&format!(
                ",\"ph\":\"{ph}\",\"ts\":{}.{:03},\"pid\":1,\"tid\":1",
                ev.ts_ns / 1000,
                ev.ts_ns % 1000
            ));
            if ev.mark == Mark::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            out.push_str(&format!(",\"args\":{{\"seq\":{}", ev.seq));
            for (key, value) in &ev.args {
                out.push(',');
                jsonl::push_escaped(&mut out, key);
                out.push_str(&format!(":{value}"));
            }
            out.push_str("}},\n");
        }
        out.push_str("]\n");
        out
    }

    /// Exports the stream as one flat JSONL object per event, using the
    /// same codec as the campaign journal.
    pub fn jsonl_log(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            let mark = match ev.mark {
                Mark::Begin => "B",
                Mark::End => "E",
                Mark::Instant => "i",
            };
            let mut fields: Vec<(&str, JsonValue)> = vec![
                ("seq", JsonValue::Num(ev.seq)),
                ("ts_ns", JsonValue::Num(ev.ts_ns)),
                ("ev", JsonValue::Str(mark.into())),
                ("kind", JsonValue::Str(ev.kind.as_str().into())),
                ("name", JsonValue::Str(ev.name.clone())),
            ];
            for (key, value) in &ev.args {
                fields.push((key, JsonValue::Num(*value)));
            }
            out.push_str(&jsonl::encode_object(&fields));
            out.push('\n');
        }
        out
    }

    /// Renders the per-kind cost table: span count, total time (begin to
    /// end) and self time (total minus directly nested child spans).
    ///
    /// Rows are sorted by total time descending, then by kind name, so the
    /// hottest span kind reads first and the bytes stay deterministic.
    pub fn hot_span_summary(&self) -> String {
        #[derive(Default, Clone, Copy)]
        struct Agg {
            count: u64,
            total_ns: u64,
            self_ns: u64,
        }
        let mut agg = vec![Agg::default(); SpanKind::ALL.len()];
        let index_of = |kind: SpanKind| {
            SpanKind::ALL
                .iter()
                .position(|k| *k == kind)
                .expect("kind in ALL")
        };
        // Replay the stream with an explicit stack: (kind, begin ts, child ns).
        let mut stack: Vec<(SpanKind, u64, u64)> = Vec::new();
        for ev in &self.events {
            match ev.mark {
                Mark::Begin => stack.push((ev.kind, ev.ts_ns, 0)),
                Mark::End => {
                    let (kind, begin_ts, child_ns) =
                        stack.pop().expect("exporter sees balanced spans");
                    let total = ev.ts_ns.saturating_sub(begin_ts);
                    let slot = &mut agg[index_of(kind)];
                    slot.count += 1;
                    slot.total_ns += total;
                    slot.self_ns += total.saturating_sub(child_ns);
                    if let Some(parent) = stack.last_mut() {
                        parent.2 += total;
                    }
                }
                Mark::Instant => {}
            }
        }
        let mut rows: Vec<(SpanKind, Agg)> = SpanKind::ALL
            .iter()
            .map(|kind| (*kind, agg[index_of(*kind)]))
            .filter(|(_, a)| a.count > 0)
            .collect();
        rows.sort_by(|(ka, a), (kb, b)| {
            b.total_ns
                .cmp(&a.total_ns)
                .then_with(|| ka.as_str().cmp(kb.as_str()))
        });
        let mut out = String::from("hot spans (count / total ns / self ns):\n");
        for (kind, a) in rows {
            out.push_str(&format!(
                "  {:<16} {:>6} {:>16} {:>16}\n",
                kind.as_str(),
                a.count,
                a.total_ns,
                a.self_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tracer {
        let mut t = Tracer::new();
        let run = t.begin(SpanKind::Run, "run");
        let phase = t.begin_with(SpanKind::Phase, "Calibration", &[("salt", 1)]);
        t.instant(
            SpanKind::OracleBatch,
            "batch",
            &[("pairs", 8), ("cached", 2)],
        );
        t.advance_ns(1_500);
        t.end_with(phase, &[("measurements", 40)]);
        let q = t.begin(SpanKind::ObservableQuery, "timing");
        t.advance_ns(250);
        t.end(q);
        t.end(run);
        t
    }

    #[test]
    fn spans_are_sequenced_and_clocked() {
        let t = sample();
        assert_eq!(t.len(), 7);
        assert_eq!(t.now_ns(), 1_750);
        assert_eq!(t.open_spans(), 0);
    }

    #[test]
    fn chrome_trace_is_deterministic_and_streaming() {
        let a = sample().chrome_trace();
        let b = sample().chrome_trace();
        assert_eq!(a, b);
        assert!(a.starts_with("[\n"));
        assert!(a.ends_with("},\n]\n"));
        assert!(a.contains("\"ph\":\"B\""));
        assert!(a.contains("\"ph\":\"E\""));
        assert!(a.contains("\"ts\":1.500"));
        assert!(a.contains("\"pairs\":8"));
        // Integer-math timestamps: 250 ns is 0.250 us, never "0.25".
        assert!(a.contains("\"ts\":0.250") || a.contains("\"ts\":1.750"));
    }

    #[test]
    fn jsonl_log_round_trips_through_the_codec() {
        let log = sample().jsonl_log();
        let mut seqs = Vec::new();
        for line in log.lines() {
            let fields = jsonl::parse_object(line).expect("log lines parse");
            seqs.push(jsonl::field(&fields, "seq").unwrap().as_u64().unwrap());
            assert!(jsonl::field(&fields, "kind").unwrap().as_str().is_some());
        }
        assert_eq!(seqs, (1..=7).collect::<Vec<_>>());
    }

    #[test]
    fn hot_span_summary_attributes_self_time() {
        let summary = sample().hot_span_summary();
        // run total = 1750, phase child total = 1500, query child = 250:
        // run self time must be zero.
        let run_row = summary
            .lines()
            .find(|l| l.trim_start().starts_with("run"))
            .expect("run row");
        let fields: Vec<&str> = run_row.split_whitespace().collect();
        assert_eq!(fields, vec!["run", "1", "1750", "0"]);
        let phase_row = summary
            .lines()
            .find(|l| l.trim_start().starts_with("phase"))
            .expect("phase row");
        assert!(phase_row.split_whitespace().any(|f| f == "1500"));
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn spans_must_close_in_lifo_order() {
        let mut t = Tracer::new();
        let outer = t.begin(SpanKind::Run, "run");
        let _inner = t.begin(SpanKind::Phase, "phase");
        t.end(outer);
    }

    #[test]
    fn prefix_property_holds_for_truncated_streams() {
        // A tracer that stops early produces a chrome trace whose event
        // lines are a byte prefix of the longer run's event lines.
        let full = sample().chrome_trace();
        let mut short = Tracer::new();
        let run = short.begin(SpanKind::Run, "run");
        let phase = short.begin_with(SpanKind::Phase, "Calibration", &[("salt", 1)]);
        short.instant(
            SpanKind::OracleBatch,
            "batch",
            &[("pairs", 8), ("cached", 2)],
        );
        short.advance_ns(1_500);
        short.end_with(phase, &[("measurements", 40)]);
        let _ = run; // left open: the run was interrupted
        let short_body = short.chrome_trace();
        let body = short_body.strip_suffix("]\n").unwrap();
        assert!(full.starts_with(body));
    }
}
