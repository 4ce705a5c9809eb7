//! The four workloads and everything drawn from the workload seed:
//! instance sizes, the problem interleave and open-loop arrival times.
//!
//! The wire format carries only `(problem, n)`; the server builds the
//! sequences from fixed seeds, so the workload seed can vary which
//! instances are asked for and when, but not their content.

use lddp_serve::{Priority, SolveRequest};

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The `i`-th value of an independent stream `tag` of `seed`: request
/// `i` is the same whichever connection happens to send it.
fn hash3(seed: u64, tag: u64, i: u64) -> Rng {
    let mut r = Rng::new(seed ^ tag.wrapping_mul(0xa076_1d64_78bd_642f));
    r.0 ^= i.wrapping_mul(0xe703_7ed1_a0b4_28db);
    r.next_u64();
    r
}

/// One traffic stream: which problems, which sizes, which class and,
/// for open loops, the offered Poisson rate.
#[derive(Debug, Clone, Copy)]
pub struct Stream {
    pub problems: &'static [&'static str],
    pub n_lo: usize,
    pub n_hi: usize,
    /// Distinct sizes per problem drawn for one run, one from each of
    /// `pool` equal strata of the range so every seed asks for about the
    /// same work (0 = every size in range). Bounded where each oracle
    /// answer costs a full table.
    pub pool: usize,
    pub priority: Priority,
    /// Offered arrivals per second (open loop only).
    pub rps: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// `conns` keep-alive HTTP connections against the `lddp-cli serve`
    /// child, each sending its next request when the last one answered.
    Closed { conns: usize, stream: bool },
    /// Seeded Poisson arrivals into an in-process server.
    Flood,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub drive: Drive,
    pub streams: &'static [Stream],
    /// Cold server starts per untraced run. Each is set up, then
    /// measured for an equal slice of the run; end-to-end metrics are
    /// medians across them. The tuner picks its execution tier from one
    /// wall-clock solve per tier, so on a busy host a start now and then
    /// runs a slower tier; many starts keep one unlucky start from
    /// deciding a run.
    pub servers: usize,
}

const ALIGNERS: &[&str] = &["lcs", "levenshtein", "needleman-wunsch"];
const WAVE: &[&str] = &["levenshtein", "needleman-wunsch"];

pub const WORKLOADS: &[Workload] = &[
    // Front end dominates: the solve is a few percent of what the
    // client sees.
    Workload {
        name: "small-http",
        drive: Drive::Closed {
            conns: 2,
            stream: false,
        },
        streams: &[Stream {
            problems: ALIGNERS,
            n_lo: 32,
            n_hi: 128,
            pool: 0,
            priority: Priority::Interactive,
            rps: 0.0,
        }],
        servers: 5,
    },
    // Engine dominates: thousands of pool barriers per solve, two serve
    // workers contending for one pool; every size in one tune bucket.
    Workload {
        name: "wave-1024",
        drive: Drive::Closed {
            conns: 2,
            stream: false,
        },
        streams: &[Stream {
            problems: WAVE,
            n_lo: 768,
            n_hi: 1024,
            pool: 8,
            priority: Priority::Interactive,
            rps: 0.0,
        }],
        servers: 11,
    },
    // Kernel, rolling ring and chunked stream dominate.
    Workload {
        name: "large-stream",
        drive: Drive::Closed {
            conns: 1,
            stream: true,
        },
        streams: &[Stream {
            problems: WAVE,
            n_lo: 7168,
            n_hi: 8192,
            pool: 3,
            priority: Priority::Interactive,
            rps: 0.0,
        }],
        servers: 5,
    },
    // Queue and QoS dominate: interactive requests wait behind batch
    // solves. In-process because two HTTP/1.1 connections could never
    // hold more than two requests in flight.
    Workload {
        name: "flood",
        drive: Drive::Flood,
        streams: &[
            Stream {
                problems: &["lcs"],
                n_lo: 32,
                n_hi: 128,
                pool: 0,
                priority: Priority::Interactive,
                rps: 100.0,
            },
            Stream {
                problems: &["levenshtein"],
                n_lo: 1024,
                n_hi: 1024,
                pool: 0,
                priority: Priority::Batch,
                rps: FLOOD_BATCH_RPS,
            },
        ],
        servers: 11,
    },
];

/// Offered batch rate of `flood`: about 40% of the 2-core capacity for
/// levenshtein 1024² on the SIMD tier and about 80% on the bulk tier,
/// so the batch queue builds and drains without shedding whichever tier
/// the tuner picked. Every request of a run must succeed.
pub const FLOOD_BATCH_RPS: f64 = 70.0;

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The sizes one run draws for each stream and problem.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    pub workload: &'static Workload,
    /// `sizes[stream][problem]`, ascending.
    pub sizes: Vec<Vec<Vec<usize>>>,
}

impl Plan {
    pub fn new(workload: &'static Workload, seed: u64) -> Plan {
        let mut rng = Rng::new(seed);
        let sizes = workload
            .streams
            .iter()
            .map(|s| {
                s.problems
                    .iter()
                    .map(|_| {
                        let range: Vec<usize> = (s.n_lo..=s.n_hi).collect();
                        if s.pool == 0 || s.pool >= range.len() {
                            return range;
                        }
                        let width = range.len() / s.pool;
                        (0..s.pool)
                            .map(|k| range[k * width + rng.below(width)])
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Plan {
            seed,
            workload,
            sizes,
        }
    }

    /// Request `i` of stream `s` in measured slice `slice`.
    pub fn request(&self, slice: usize, s: usize, i: u64) -> SolveRequest {
        let stream = &self.workload.streams[s];
        let mut r = hash3(self.seed ^ ((slice as u64) << 48), s as u64 + 1, i);
        let p = r.below(stream.problems.len());
        let sizes = &self.sizes[s][p];
        let mut req = SolveRequest::new(stream.problems[p], sizes[r.below(sizes.len())]);
        req.priority = stream.priority;
        req
    }

    /// Every distinct `(problem, n)` a run can ask for.
    pub fn instances(&self) -> Vec<(&'static str, usize)> {
        let mut out = Vec::new();
        for (s, stream) in self.workload.streams.iter().enumerate() {
            for (p, problem) in stream.problems.iter().enumerate() {
                for &n in &self.sizes[s][p] {
                    if !out.contains(&(*problem, n)) {
                        out.push((*problem, n));
                    }
                }
            }
        }
        out
    }

    /// One request per batch key (problem, size bucket, class): what
    /// set-up must have answered once. Each uses the largest drawn size
    /// of its bucket, so set-up pays the bucket's full cold cost.
    pub fn key_requests(&self) -> Vec<SolveRequest> {
        let mut out: Vec<SolveRequest> = Vec::new();
        for (s, stream) in self.workload.streams.iter().enumerate() {
            for (p, problem) in stream.problems.iter().enumerate() {
                for &n in self.sizes[s][p].iter().rev() {
                    let mut req = SolveRequest::new(*problem, n);
                    req.priority = stream.priority;
                    if !out.iter().any(|o| o.batch_key() == req.batch_key()) {
                        out.push(req);
                    }
                }
            }
        }
        out
    }

    /// Seeded Poisson arrivals of every stream over `seconds` of slice
    /// `slice`, merged in due order: `(due_s, stream, index)`.
    pub fn arrivals(&self, slice: usize, seconds: f64) -> Vec<(f64, usize, u64)> {
        let mut out = Vec::new();
        for (s, stream) in self.workload.streams.iter().enumerate() {
            let mut rng = hash3(self.seed, 0x100 + s as u64, slice as u64);
            let (mut t, mut i) = (0.0, 0u64);
            loop {
                t += -(1.0 - rng.unit()).ln() / stream.rps;
                if t >= seconds {
                    break;
                }
                out.push((t, s, i));
                i += 1;
            }
        }
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }
}

/// DP cells of a request: every workload problem is an `n × n` table.
pub fn cells(req: &SolveRequest) -> f64 {
    (req.n * req.n) as f64
}
