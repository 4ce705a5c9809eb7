//! Load generators: the closed loop (HTTP or in-process), the bounded
//! open loop of `flood`, and the set-up pass that answers every batch
//! key once. Every answer is checked against the oracle.

use crate::gen::{cells, Plan};
use crate::spans::SpanLog;
use lddp_serve::http::HttpConnection;
use lddp_serve::{stream, Client, Priority, ServeError, SolveRequest, SolveResponse};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Oracle answers by `(problem, n)`, computed before any timing.
pub type Oracle = HashMap<(String, usize), String>;

pub fn oracle(plan: &Plan) -> Result<Oracle, String> {
    let todo = plan.instances();
    // Two threads: at 8192² one reference solve takes seconds.
    let halves: Vec<Result<Oracle, String>> = std::thread::scope(|s| {
        let jobs: Vec<_> = [0, 1]
            .map(|half| {
                let todo = &todo;
                s.spawn(move || {
                    todo.iter()
                        .skip(half)
                        .step_by(2)
                        .map(|&(p, n)| Ok(((p.to_string(), n), lddp::cli::run_solve_seq(p, n)?)))
                        .collect()
                })
            })
            .into_iter()
            .collect();
        jobs.into_iter()
            .map(|j| j.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut all = Oracle::new();
    for half in halves {
        all.extend(half?);
    }
    Ok(all)
}

/// Per-request client read timeout. Far above any healthy solve; a hit
/// counts the request as failed instead of hanging the run.
pub const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Ok,
    /// Answer differs from the oracle.
    Mismatch,
    /// Refused or failed, with the server's error code (or
    /// `transport`).
    Failed(String),
}

/// The server's own stage times for a request, from its response.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub queue_ms: f64,
    pub batch_ms: f64,
    pub tune_ms: f64,
    pub solve_ms: f64,
    pub batch_size: usize,
}

impl Stages {
    fn of(resp: &SolveResponse) -> Stages {
        Stages {
            queue_ms: resp.queue_ms,
            batch_ms: resp.batch_ms,
            tune_ms: resp.tune_ms,
            solve_ms: resp.solve_ms,
            batch_size: resp.batch_size,
        }
    }

    pub fn sum_ms(&self) -> f64 {
        self.queue_ms + self.batch_ms + self.tune_ms + self.solve_ms
    }
}

#[derive(Debug, Clone)]
pub struct Sample {
    pub priority: Priority,
    pub outcome: Outcome,
    /// Client-observed latency, from send (closed loop) or from the
    /// due time (open loop).
    pub latency_ms: f64,
    /// Time to the first result the client can use: the first band
    /// frame of a streamed reply, the whole reply otherwise.
    pub ttfb_ms: f64,
    /// How late the open-loop sender issued the request.
    pub late_ms: f64,
    pub cells: f64,
    pub stages: Stages,
    pub trace_id: String,
}

/// Everything one measured phase produced.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub window_s: f64,
    pub threads: usize,
    pub connections: usize,
}

/// What a sender saw for one request.
pub struct Exchange {
    pub result: Result<SolveResponse, String>,
    pub ttfb: Option<Instant>,
}

/// One client connection's send function.
pub type Sender<'a> = Box<dyn FnMut(&SolveRequest) -> Exchange + 'a>;

fn error_code(status: u16, body: &str) -> String {
    lddp::trace::json::parse(body)
        .ok()
        .and_then(|v| v.get("error").and_then(|e| e.as_str()).map(str::to_string))
        .unwrap_or_else(|| format!("http_{status}"))
}

/// A sender over one keep-alive HTTP connection (redialled after a
/// transport error). Streamed requests record the first band frame.
pub fn http_sender<'a>(addr: &'a str, streamed: bool) -> Sender<'a> {
    let mut conn: Option<HttpConnection> = None;
    Box::new(move |req: &SolveRequest| {
        let fail = |e: String| Exchange {
            result: Err(format!("transport: {e}")),
            ttfb: None,
        };
        if conn.is_none() {
            match HttpConnection::connect(addr, IO_TIMEOUT) {
                Ok(c) => conn = Some(c),
                Err(e) => return fail(e),
            }
        }
        let c = conn.as_mut().expect("connection dialled above");
        let body = req.to_json();
        let out = if streamed {
            let mut ttfb = None;
            let mut done = None;
            let outcome = c.request_stream("POST", "/solve?stream=1", Some(&body), &mut |chunk| {
                match stream::frame_kind(chunk).as_deref() {
                    Some("band") => {
                        ttfb.get_or_insert_with(Instant::now);
                    }
                    Some("done") => done = Some(SolveResponse::from_json(chunk)),
                    _ => done = Some(Err(error_code(500, chunk))),
                }
            });
            match outcome {
                Ok(o) => match o.plain_body {
                    Some(body) => Exchange {
                        result: Err(error_code(o.status, &body)),
                        ttfb: None,
                    },
                    None => Exchange {
                        result: done.unwrap_or_else(|| Err("stream ended early".into())),
                        ttfb,
                    },
                },
                Err(e) => fail(e),
            }
        } else {
            match c.request("POST", "/solve", Some(&body)) {
                Ok((200, body)) => Exchange {
                    result: SolveResponse::from_json(&body).map_err(|e| format!("decode: {e}")),
                    ttfb: None,
                },
                Ok((status, body)) => Exchange {
                    result: Err(error_code(status, &body)),
                    ttfb: None,
                },
                Err(e) => fail(e),
            }
        };
        if matches!(&out.result, Err(e) if e.starts_with("transport")) {
            conn = None;
        }
        out
    })
}

/// A sender into an in-process server.
pub fn client_sender<'a>(client: &'a Client<'_, '_>) -> Sender<'a> {
    Box::new(move |req: &SolveRequest| Exchange {
        result: client.solve(req.clone()).map_err(|e| e.code().to_string()),
        ttfb: None,
    })
}

fn judge(oracle: &Oracle, req: &SolveRequest, result: &Result<SolveResponse, String>) -> Outcome {
    match result {
        Ok(resp) => match oracle.get(&(req.problem.clone(), req.n)) {
            Some(want) if *want == resp.answer => Outcome::Ok,
            _ => Outcome::Mismatch,
        },
        Err(code) => Outcome::Failed(code.clone()),
    }
}

fn sample_of(
    req: &SolveRequest,
    ex: &Exchange,
    oracle: &Oracle,
    sent: Instant,
    done: Instant,
) -> Sample {
    let latency_ms = done.duration_since(sent).as_secs_f64() * 1e3;
    let resp = ex.result.as_ref().ok();
    Sample {
        priority: req.priority,
        outcome: judge(oracle, req, &ex.result),
        latency_ms,
        ttfb_ms: ex
            .ttfb
            .map_or(latency_ms, |t| t.duration_since(sent).as_secs_f64() * 1e3),
        late_ms: 0.0,
        cells: cells(req),
        stages: resp.map(Stages::of).unwrap_or_default(),
        trace_id: resp.map(|r| r.trace_id.clone()).unwrap_or_default(),
    }
}

/// Sends one request per batch key, in order, over one sender.
pub fn answer_keys(plan: &Plan, sender: &mut Sender<'_>, oracle: &Oracle) -> Vec<Sample> {
    plan.key_requests()
        .iter()
        .map(|req| {
            let sent = Instant::now();
            let ex = sender(req);
            sample_of(req, &ex, oracle, sent, Instant::now())
        })
        .collect()
}

/// Closed loop: `conns` senders, each issuing request `i` of stream 0
/// (a shared counter) as soon as its previous one answered, until
/// `seconds` have passed.
pub fn closed_loop<'a>(
    plan: &Plan,
    slice: usize,
    conns: usize,
    seconds: f64,
    oracle: &Oracle,
    spans: Option<&SpanLog>,
    connect: &(dyn Fn() -> Sender<'a> + Sync),
) -> Phase {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for conn in 0..conns {
            let (next, samples) = (&next, &samples);
            s.spawn(move || {
                let mut sender = connect();
                let mut mine = Vec::new();
                while start.elapsed().as_secs_f64() < seconds {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let req = plan.request(slice, 0, i);
                    let sent = Instant::now();
                    let ex = sender(&req);
                    let done = Instant::now();
                    let sample = sample_of(&req, &ex, oracle, sent, done);
                    if let Some(log) = spans {
                        log.request(conn, &req, &sample, sent, done);
                    }
                    mine.push(sample);
                }
                samples.lock().expect("sample sink poisoned").extend(mine);
            });
        }
    });
    Phase {
        samples: samples.into_inner().expect("sample sink poisoned"),
        window_s: start.elapsed().as_secs_f64(),
        threads: conns,
        connections: conns,
    }
}

/// How long before a due time the open-loop sender stops sleeping and
/// spins.
const SPIN: Duration = Duration::from_micros(250);

/// How long the open-loop collector blocks on one reply before it polls
/// the batch replies again: the resolution of their latencies.
const POLL: Duration = Duration::from_millis(1);

/// Bounded open loop: one sender thread submits every seeded arrival at
/// its due time; one collector thread timestamps the replies. The
/// collector blocks on the oldest pending interactive reply or, with
/// none pending, on the next submission, and polls the batch replies
/// between waits, so a slow batch reply never holds up the timestamp of
/// an interactive one. Latency counts from the due time.
pub fn open_loop(
    plan: &Plan,
    slice: usize,
    client: &Client<'_, '_>,
    seconds: f64,
    oracle: &Oracle,
    spans: Option<&SpanLog>,
) -> Phase {
    type Reply = mpsc::Receiver<Result<SolveResponse, ServeError>>;
    type Pending = (SolveRequest, Instant, f64, Reply);
    let arrivals = plan.arrivals(slice, seconds);
    let (tx, rx) = mpsc::channel::<Pending>();
    let start = Instant::now();
    let samples = Mutex::new(Vec::new());
    let record = |req: &SolveRequest,
                  due: Instant,
                  late_ms: f64,
                  result: Result<SolveResponse, String>|
     -> Sample {
        let done = Instant::now();
        let ex = Exchange { result, ttfb: None };
        let mut sample = sample_of(req, &ex, oracle, due, done);
        sample.late_ms = late_ms;
        if let Some(log) = spans {
            log.request(req.priority.index(), req, &sample, due, done);
        }
        sample
    };
    // Files a settled reply.
    let settle = |(req, due, late_ms, _): Pending,
                  reply: Result<Result<SolveResponse, ServeError>, ()>,
                  mine: &mut Vec<Sample>| {
        let result = reply
            .unwrap_or_else(|_| Err(ServeError::Backend("reply dropped".into())))
            .map_err(|e| e.code().to_string());
        mine.push(record(&req, due, late_ms, result));
    };
    std::thread::scope(|s| {
        let samples_ref = &samples;
        s.spawn(move || {
            for &(due_s, stream, i) in &arrivals {
                let due = start + Duration::from_secs_f64(due_s);
                // Sleep wakes tens of microseconds late; sleep to just
                // short of the due time and spin the rest.
                if let Some(ahead) = due.checked_duration_since(Instant::now()) {
                    if ahead > SPIN {
                        std::thread::sleep(ahead - SPIN);
                    }
                    while Instant::now() < due {
                        std::hint::spin_loop();
                    }
                }
                let req = plan.request(slice, stream, i);
                let late_ms = due.elapsed().as_secs_f64() * 1e3;
                match client.submit(req.clone()) {
                    Ok(reply) => {
                        if tx.send((req, due, late_ms, reply)).is_err() {
                            return;
                        }
                    }
                    Err(reason) => {
                        let sample = record(&req, due, late_ms, Err(reason.code().to_string()));
                        samples_ref
                            .lock()
                            .expect("sample sink poisoned")
                            .push(sample);
                    }
                }
            }
        });
        s.spawn(move || {
            let mut fg: VecDeque<Pending> = VecDeque::new();
            let mut bg: Vec<Pending> = Vec::new();
            let mut mine = Vec::new();
            let mut open = true;
            let admit = |p: Pending, fg: &mut VecDeque<Pending>, bg: &mut Vec<Pending>| {
                if p.0.priority == Priority::Interactive {
                    fg.push_back(p);
                } else {
                    bg.push(p);
                }
            };
            loop {
                match fg.front() {
                    Some(head) => match head.3.recv_timeout(POLL) {
                        Ok(r) => settle(fg.pop_front().expect("head exists"), Ok(r), &mut mine),
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                        Err(mpsc::RecvTimeoutError::Disconnected) => {
                            settle(fg.pop_front().expect("head exists"), Err(()), &mut mine)
                        }
                    },
                    None if open => match rx.recv_timeout(POLL) {
                        Ok(p) => admit(p, &mut fg, &mut bg),
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                        Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
                    },
                    None if bg.is_empty() => break,
                    None => std::thread::sleep(POLL),
                }
                while let Ok(p) = rx.try_recv() {
                    admit(p, &mut fg, &mut bg);
                }
                let mut k = 0;
                while k < bg.len() {
                    match bg[k].3.try_recv() {
                        Ok(r) => settle(bg.swap_remove(k), Ok(r), &mut mine),
                        Err(mpsc::TryRecvError::Disconnected) => {
                            settle(bg.swap_remove(k), Err(()), &mut mine)
                        }
                        Err(mpsc::TryRecvError::Empty) => k += 1,
                    }
                }
            }
            samples_ref
                .lock()
                .expect("sample sink poisoned")
                .extend(mine);
        });
    });
    Phase {
        samples: samples.into_inner().expect("sample sink poisoned"),
        window_s: start.elapsed().as_secs_f64(),
        threads: 2,
        connections: 0,
    }
}
