//! A [`SolveBackend`] decorator that times every call into the backend
//! layer and delegates it unchanged, so answers stay identical to the
//! undecorated backend's.

use crate::spans::{SpanLog, BACKEND_PID};
use crate::stats::quantile;
use lddp::core::tuner_cache::TunedConfig;
use lddp::trace::TraceSink;
use lddp_serve::{BackendSolve, BandFrame, BatchPlan, PoolHealth, SolveBackend, SolveRequest};
use std::sync::Mutex;
use std::time::Instant;

pub struct TimingBackend<'a, B> {
    inner: &'a B,
    spans: Option<&'a SpanLog>,
    plan_ms: Mutex<Vec<f64>>,
    solve_ms: Mutex<Vec<f64>>,
}

fn lane() -> u32 {
    // Thread ids print as `ThreadId(N)`; N is a stable small integer.
    let id = format!("{:?}", std::thread::current().id());
    id.trim_start_matches("ThreadId(")
        .trim_end_matches(')')
        .parse()
        .unwrap_or(0)
}

impl<'a, B: SolveBackend> TimingBackend<'a, B> {
    pub fn new(inner: &'a B, spans: Option<&'a SpanLog>) -> Self {
        TimingBackend {
            inner,
            spans,
            plan_ms: Mutex::new(Vec::new()),
            solve_ms: Mutex::new(Vec::new()),
        }
    }

    fn timed<R>(&self, name: &str, sink: &Mutex<Vec<f64>>, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        sink.lock()
            .expect("timing sink poisoned")
            .push(t1.duration_since(t0).as_secs_f64() * 1e3);
        if let Some(log) = self.spans {
            log.push(log.span(name, BACKEND_PID, lane(), t0, t1));
        }
        out
    }

    /// `(p50, p99, count)` of each timed call, milliseconds. Admission
    /// calls `estimate_ms` only for requests with a deadline, which no
    /// workload sends; its cost is probed directly instead.
    pub fn summary(&self) -> [(&'static str, f64, f64, usize); 2] {
        let q = |name, m: &Mutex<Vec<f64>>| {
            let v = m.lock().expect("timing sink poisoned");
            (name, quantile(&v, 0.5), quantile(&v, 0.99), v.len())
        };
        [q("plan", &self.plan_ms), q("solve", &self.solve_ms)]
    }
}

impl<B: SolveBackend> SolveBackend for TimingBackend<'_, B> {
    fn validate(&self, req: &SolveRequest) -> Result<(), String> {
        self.inner.validate(req)
    }

    fn tune(
        &self,
        probe: &SolveRequest,
        sink: &dyn TraceSink,
    ) -> Result<(TunedConfig, bool), String> {
        self.inner.tune(probe, sink)
    }

    fn solve(
        &self,
        req: &SolveRequest,
        config: TunedConfig,
        sink: &dyn TraceSink,
    ) -> Result<BackendSolve, String> {
        self.timed("backend.solve", &self.solve_ms, || {
            self.inner.solve(req, config, sink)
        })
    }

    fn plan(&self, probe: &SolveRequest, sink: &dyn TraceSink) -> Result<BatchPlan, String> {
        self.timed("backend.plan", &self.plan_ms, || {
            self.inner.plan(probe, sink)
        })
    }

    fn solve_placed(
        &self,
        req: &SolveRequest,
        plan: &BatchPlan,
        sink: &dyn TraceSink,
    ) -> Result<BackendSolve, String> {
        self.timed("backend.solve", &self.solve_ms, || {
            self.inner.solve_placed(req, plan, sink)
        })
    }

    fn solve_streamed(
        &self,
        req: &SolveRequest,
        plan: &BatchPlan,
        sink: &dyn TraceSink,
        emit: &(dyn Fn(BandFrame) -> bool + Sync),
    ) -> Result<BackendSolve, String> {
        self.timed("backend.solve", &self.solve_ms, || {
            self.inner.solve_streamed(req, plan, sink, emit)
        })
    }

    fn estimate_ms(&self, req: &SolveRequest) -> Option<f64> {
        self.inner.estimate_ms(req)
    }

    fn supports_rolling(&self, req: &SolveRequest) -> bool {
        self.inner.supports_rolling(req)
    }

    fn pool_health(&self) -> Vec<PoolHealth> {
        self.inner.pool_health()
    }

    fn fleet_stats_json(&self) -> Option<String> {
        self.inner.fleet_stats_json()
    }
}
