//! The traced run's span log: spans kept in memory, one id per request
//! (the reply's `trace_id`), written out as Chrome trace JSON at the end.

use crate::load::{Outcome, Sample};
use lddp::trace::{chrome, Recorder, Span, TraceSink, Track};
use lddp_serve::SolveRequest;
use std::time::Instant;

/// Chrome-trace process ids of the benchmark's own lanes.
pub const CLIENT_PID: u32 = 20;
pub const BACKEND_PID: u32 = 21;
pub const PROBE_PID: u32 = 22;

pub struct SpanLog {
    epoch: Instant,
    rec: Recorder,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            rec: Recorder::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Records `[t0, t1)` as `name` on lane `(pid, tid)`.
    pub fn span(&self, name: &str, pid: u32, tid: u32, t0: Instant, t1: Instant) -> Span {
        let start = self.at(t0);
        Span::new(
            name,
            Track { pid, tid },
            start,
            (self.at(t1) - start).max(0.0),
        )
    }

    pub fn push(&self, span: Span) {
        self.rec.span(span);
    }

    /// A client request span with the server's reported stages as
    /// children. The server does not say when its stages began on the
    /// client's clock, so they are centred in the client span: the
    /// uncovered rest is the front end's residual.
    pub fn request(&self, lane: usize, req: &SolveRequest, s: &Sample, t0: Instant, t1: Instant) {
        let tid = lane as u32 + 1;
        let outcome = match &s.outcome {
            Outcome::Ok => "ok".to_string(),
            Outcome::Mismatch => "mismatch".to_string(),
            Outcome::Failed(code) => code.clone(),
        };
        self.push(
            self.span("client.request", CLIENT_PID, tid, t0, t1)
                .with_arg("trace_id", s.trace_id.as_str())
                .with_arg("problem", req.problem.as_str())
                .with_arg("n", req.n)
                .with_arg("class", req.priority.as_str())
                .with_arg("outcome", outcome),
        );
        if s.outcome != Outcome::Ok {
            return;
        }
        let total = self.at(t1) - self.at(t0);
        let mut at = self.at(t0) + ((total - s.stages.sum_ms() / 1e3) / 2.0).max(0.0);
        for (name, ms) in [
            ("server.queue", s.stages.queue_ms),
            ("server.batch", s.stages.batch_ms),
            ("server.tune", s.stages.tune_ms),
            ("server.solve", s.stages.solve_ms),
        ] {
            if ms > 0.0 {
                self.push(
                    Span::new(
                        name,
                        Track {
                            pid: CLIENT_PID,
                            tid,
                        },
                        at,
                        ms / 1e3,
                    )
                    .with_arg("trace_id", s.trace_id.as_str()),
                );
                at += ms / 1e3;
            }
        }
    }

    pub fn write(self, path: &std::path::Path) -> Result<usize, String> {
        let data = self.rec.into_data();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, chrome::to_chrome_json(&data))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(data.spans.len())
    }
}
