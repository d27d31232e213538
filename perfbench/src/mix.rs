//! The seeded request sequence of the `serve_mix` workload.
//!
//! The benchmark draws every request from its `--seed`; the server only
//! ever sees the generated requests.  Three kinds, closed loop:
//!
//! * warm `/points` batches over a fixed warm set (in-memory LRU hits);
//! * warm `/run` of Figures 3 and 10 at smoke scale;
//! * a minority of cold single points whose budget grows with every cold
//!   request, so no cold key repeats within a run: each one simulates and
//!   writes the disk cache beside the reads.
//!
//! The shares (60% batches, 25% runs, 15% cold) and the batch sizes (1–8)
//! are an assumption: nothing in the repository records how clients use
//! the service, so there is no traffic to measure them against.  They keep
//! warm reads the bulk of the traffic and cold points a minority, and give
//! every kind enough requests per run for a per-kind latency.

use earlyreg_workloads::registry;

/// Policies the mix requests (registry ids).
pub const POLICIES: [&str; 3] = ["conv", "basic", "extended"];
/// Register-file size of the warm set (Figure 10's).
pub const WARM_SIZE: usize = 48;
/// Register-file sizes cold points draw from.
const COLD_SIZES: [usize; 8] = [40, 56, 64, 72, 80, 96, 112, 128];
/// Budget of the first cold point; each later one adds one instruction.
/// Every smoke-scale workload halts well below it, so the budget changes
/// the point's key but not its work.
const COLD_BUDGET_BASE: u64 = 100_000;
/// Largest warm `/points` batch.
const MAX_BATCH: usize = 8;

/// SplitMix64: small, seedable, dependency-free.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The paper's workloads (Table 3), in registry order.
pub fn workloads() -> Vec<&'static str> {
    registry::descriptors()
        .iter()
        .filter(|d| d.paper)
        .map(|d| d.id)
        .collect()
}

/// The warm set: every paper workload under every policy at [`WARM_SIZE`].
pub fn warm_set() -> Vec<(&'static str, &'static str)> {
    workloads()
        .into_iter()
        .flat_map(|w| POLICIES.iter().map(move |&p| (w, p)))
        .collect()
}

/// One point of a `/points` body.
fn point_json(workload: &str, policy: &str, size: usize) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"policy\":\"{policy}\",\"phys_int\":{size},\"phys_fp\":{size}}}"
    )
}

/// A cold point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColdPoint {
    pub workload: &'static str,
    pub policy: &'static str,
    pub size: usize,
    pub budget: u64,
}

/// One request of the mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `/points` over these indices of [`warm_set`].
    Points(Vec<usize>),
    /// `/run` of Figures 3 and 10.
    Run,
    /// `/points` with one never-repeating point.
    Cold(ColdPoint),
}

impl Request {
    /// Request kind, as the per-endpoint metrics name it.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Points(_) => "points",
            Request::Run => "run",
            Request::Cold(_) => "cold",
        }
    }

    /// Endpoint path.
    pub fn path(&self) -> &'static str {
        match self {
            Request::Run => "/run",
            _ => "/points",
        }
    }

    /// JSON body.
    pub fn body(&self, warm: &[(&'static str, &'static str)]) -> String {
        match self {
            Request::Points(indices) => {
                let points: Vec<String> = indices
                    .iter()
                    .map(|&i| point_json(warm[i].0, warm[i].1, WARM_SIZE))
                    .collect();
                format!("{{\"points\":[{}]}}", points.join(","))
            }
            Request::Run => run_body().to_string(),
            Request::Cold(p) => format!(
                "{{\"points\":[{}],\"max_instructions\":{}}}",
                point_json(p.workload, p.policy, p.size),
                p.budget
            ),
        }
    }
}

/// Body of the warm `/run` request.
pub fn run_body() -> &'static str {
    "{\"experiments\":[\"fig03\",\"fig10\"]}"
}

/// Body warming every point of the warm set.
pub fn warm_body(warm: &[(&'static str, &'static str)]) -> String {
    Request::Points((0..warm.len()).collect()).body(warm)
}

/// Endless seeded request generator.
pub struct Mix {
    rng: Rng,
    workloads: Vec<&'static str>,
    warm_len: usize,
    colds: u64,
}

impl Mix {
    pub fn new(seed: u64) -> Mix {
        Mix {
            rng: Rng(seed),
            workloads: workloads(),
            warm_len: warm_set().len(),
            colds: 0,
        }
    }

    /// The next request: 60% warm batches, 25% warm runs, 15% cold points
    /// (assumed shares; see the module documentation).
    pub fn next_request(&mut self) -> Request {
        match self.rng.below(100) {
            0..=59 => {
                let len = 1 + self.rng.below(MAX_BATCH);
                let mut indices: Vec<usize> = Vec::with_capacity(len);
                while indices.len() < len {
                    let index = self.rng.below(self.warm_len);
                    if !indices.contains(&index) {
                        indices.push(index);
                    }
                }
                Request::Points(indices)
            }
            60..=84 => Request::Run,
            _ => {
                let point = ColdPoint {
                    workload: self.workloads[self.rng.below(self.workloads.len())],
                    policy: POLICIES[self.rng.below(POLICIES.len())],
                    size: COLD_SIZES[self.rng.below(COLD_SIZES.len())],
                    budget: COLD_BUDGET_BASE + self.colds,
                };
                self.colds += 1;
                Request::Cold(point)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn sequence(seed: u64, n: usize) -> Vec<Request> {
        let mut mix = Mix::new(seed);
        (0..n).map(|_| mix.next_request()).collect()
    }

    #[test]
    fn same_seed_same_sequence_other_seed_differs() {
        assert_eq!(sequence(7, 500), sequence(7, 500));
        assert_ne!(sequence(7, 500), sequence(8, 500));
        let warm = warm_set();
        let bodies =
            |seed| -> Vec<String> { sequence(seed, 200).iter().map(|r| r.body(&warm)).collect() };
        assert_eq!(bodies(3), bodies(3));
        assert_ne!(bodies(3), bodies(4));
    }

    #[test]
    fn cold_keys_never_repeat_within_a_run() {
        let requests = sequence(11, 20_000);
        let colds: Vec<ColdPoint> = requests
            .iter()
            .filter_map(|r| match r {
                Request::Cold(p) => Some(*p),
                _ => None,
            })
            .collect();
        assert!(
            colds.len() > 2_000,
            "cold points are a real share of the mix"
        );
        let distinct: HashSet<ColdPoint> = colds.iter().copied().collect();
        assert_eq!(distinct.len(), colds.len());
        let budgets: HashSet<u64> = colds.iter().map(|p| p.budget).collect();
        assert_eq!(
            budgets.len(),
            colds.len(),
            "the budget alone keeps keys apart"
        );
        // And no cold point coincides with a warm one.
        assert!(colds.iter().all(|p| p.size != WARM_SIZE));
    }

    #[test]
    fn mix_covers_every_kind_and_warm_batches_stay_in_range() {
        let warm = warm_set();
        assert_eq!(warm.len(), 30);
        let requests = sequence(5, 2_000);
        for kind in ["points", "run", "cold"] {
            assert!(requests.iter().any(|r| r.kind() == kind), "{kind}");
        }
        for request in &requests {
            if let Request::Points(indices) = request {
                assert!(!indices.is_empty() && indices.len() <= MAX_BATCH);
                assert!(indices.iter().all(|&i| i < warm.len()));
            }
        }
    }
}
