//! `earlyreg-perfbench` — end-to-end and per-layer benchmark of the earlyreg
//! reproduction, driving every layer in-process through its public API.
//!
//! ```text
//! earlyreg-perfbench --workload reproduce|rerender|serve_mix
//!                    --seed N --seconds S --trace 0|1
//! ```
//!
//! Each invocation runs one workload in this process: it sets the workload
//! up (several times, reporting the median), then times ops for `--seconds`
//! seconds and checks every op's output.  With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it alternates untraced and traced
//! ops, records spans around each layer call and reports per-layer metrics.
//! The last line of stdout is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! See `perfbench/README.md` for every metric and workload.

mod host;
mod mix;
mod reports;
mod serve_mix;
mod stats;
mod trace;

use earlyreg_experiments::fig03::Fig03Result;
use earlyreg_experiments::fig10::Fig10Result;
use earlyreg_workloads::WorkloadClass;
use host::Sched;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: earlyreg-perfbench --workload reproduce|rerender|serve_mix \
                     --seed N --seconds S --trace 0|1";

/// Set-ups per run of `reproduce` and `rerender` (about 3 s each); the run
/// reports their median time.
pub const SETUP_REPEATS: usize = 3;

/// End-to-end metrics (`--trace 0`), in output order: name, unit.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
    ("fig10_fp_gain_err_pp", "pp"),
    ("fig10_int_gain_err_pp", "pp"),
    ("fig03_int_idle_err_pp", "pp"),
    ("fig03_fp_idle_err_pp", "pp"),
];

/// Per-layer metrics (`--trace 1`), in output order: name, unit.  A layer a
/// workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("workloads.suite_ms", "ms"),
    ("experiments.fingerprint_ms", "ms"),
    ("experiments.plan_ms", "ms"),
    ("experiments.points_planned", "count"),
    ("experiments.points_unique", "count"),
    ("experiments.cache_load_ms", "ms"),
    ("experiments.cache_hit_ratio", "ratio"),
    ("experiments.cache_store_ms", "ms"),
    ("experiments.cache_stores", "count"),
    ("experiments.render_ms", "ms"),
    ("isa.capture_ms", "ms"),
    ("isa.capture_minstr_per_s", "Minstr/s"),
    ("sim.setup_us_per_point", "us"),
    ("sim.run_ms", "ms"),
    ("sim.ns_per_instr", "ns"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.minstr_per_s", "Minstr/s"),
    ("sim.committed", "count"),
    ("sim.cycles", "count"),
    ("core.early_releases", "count"),
    ("core.rename_stall_cycles", "count"),
    ("serve.handle_ms", "ms"),
    ("serve.handle_points_ms", "ms"),
    ("serve.handle_run_ms", "ms"),
    ("serve.handle_cold_ms", "ms"),
    ("serve.latency_points_ms", "ms"),
    ("serve.latency_run_ms", "ms"),
    ("serve.latency_cold_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.lru_hit_ratio", "ratio"),
    ("serve.simulated_per_req", "count"),
    ("trace.op_ms", "ms"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.other_ms", "ms"),
    ("host.oncpu_ms", "ms"),
    ("host.runq_wait_share", "ratio"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Paper reference values of the fidelity metrics, each from the reference
/// line its experiment module prints.
pub mod paper {
    /// `crates/experiments/src/fig10.rs`, `render`: "FP extended ≈ +8% ...
    /// over conventional" (Hm IPC, 48+48 registers).
    pub const FIG10_FP_EXTENDED_GAIN_PCT: f64 = 8.0;
    /// `crates/experiments/src/fig10.rs`, `render`: "integer extended ≈ +5%
    /// over conventional" (Hm IPC, 48+48 registers).
    pub const FIG10_INT_EXTENDED_GAIN_PCT: f64 = 5.0;
    /// `crates/experiments/src/fig03.rs`, `render`: "idle registers inflate
    /// useful occupancy by +45.8% (int)".
    pub const FIG03_INT_IDLE_PCT: f64 = 45.8;
    /// `crates/experiments/src/fig03.rs`, `render`: "... and +16.8% (fp)".
    pub const FIG03_FP_IDLE_PCT: f64 = 16.8;
}

/// Distance of the reproduction from the paper, in percentage points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    pub fig10_fp_gain_err_pp: f64,
    pub fig10_int_gain_err_pp: f64,
    pub fig03_int_idle_err_pp: f64,
    pub fig03_fp_idle_err_pp: f64,
}

impl Fidelity {
    /// Compare the Figure 10 harmonic-mean gains and the Figure 3 idle
    /// overheads against the paper.
    pub fn new(fig10: &Fig10Result, fig03: &Fig03Result) -> Fidelity {
        let gain_pct = |class| 100.0 * fig10.group_speedup(class, "extended");
        Fidelity {
            fig10_fp_gain_err_pp: (gain_pct(WorkloadClass::Fp) - paper::FIG10_FP_EXTENDED_GAIN_PCT)
                .abs(),
            fig10_int_gain_err_pp: (gain_pct(WorkloadClass::Int)
                - paper::FIG10_INT_EXTENDED_GAIN_PCT)
                .abs(),
            fig03_int_idle_err_pp: (100.0 * fig03.int_idle_overhead - paper::FIG03_INT_IDLE_PCT)
                .abs(),
            fig03_fp_idle_err_pp: (100.0 * fig03.fp_idle_overhead - paper::FIG03_FP_IDLE_PCT).abs(),
        }
    }
}

/// Wall and scheduler time of every timed op of a run.
#[derive(Debug, Default)]
pub struct Samples {
    pub wall_ms: Vec<f64>,
    pub oncpu_ms: Vec<f64>,
    pub runq_ms: Vec<f64>,
}

impl Samples {
    /// Time one op.
    pub fn time<R>(&mut self, op: impl FnOnce() -> R) -> R {
        let sched = Sched::now();
        let start = Instant::now();
        let result = op();
        let wall = start.elapsed();
        let spent = Sched::now().since(sched);
        self.wall_ms.push(wall.as_secs_f64() * 1e3);
        self.oncpu_ms.push(spent.oncpu_ns as f64 / 1e6);
        self.runq_ms.push(spent.runq_ns as f64 / 1e6);
        result
    }

    /// Share of op wall time spent runnable but waiting for a CPU.
    pub fn runq_wait_share(&self) -> f64 {
        let wall: f64 = self.wall_ms.iter().sum();
        if wall > 0.0 {
            self.runq_ms.iter().sum::<f64>() / wall
        } else {
            0.0
        }
    }
}

/// Op counts and checks of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one op and whether it passed its checks.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// What an untraced run measured.
pub struct EndToEndRun {
    pub setup_s: Vec<f64>,
    pub samples: Samples,
    pub tally: Tally,
    pub fidelity: Fidelity,
    /// `VmHWM` once the timed ops are done, in MiB.
    pub peak_rss_mb: f64,
}

/// What a traced run measured: per-layer values keyed by metric name.
pub struct PerLayerRun {
    pub values: BTreeMap<&'static str, f64>,
    pub tally: Tally,
}

/// The metrics of a run, in output order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end_metrics(run: &EndToEndRun) -> Metrics {
    let samples = &run.samples;
    let tail_of =
        |values: &[f64]| stats::windowed_tail(values).unwrap_or_else(|| stats::worst(values));
    let tail = tail_of(&samples.wall_ms);
    let measured_s: f64 = samples.wall_ms.iter().sum::<f64>() / 1e3;
    let oncpu_tail = tail_of(&samples.oncpu_ms);
    let run_tail = stats::tail(&samples.wall_ms).unwrap_or_else(|| stats::worst(&samples.wall_ms));
    eprintln!(
        "perfbench: ops={} p50_wall_ms={:.4} p50_oncpu_ms={:.4} tail=p{:.2} ({} beyond) \
         tail_wall_ms={:.4} tail_oncpu_ms={:.4} whole_run_tail=p{:.2} ({} beyond) {:.4} ms \
         host.runq_wait_share={:.5} setup_s={:?}",
        samples.wall_ms.len(),
        stats::median(&samples.wall_ms),
        stats::median(&samples.oncpu_ms),
        tail.percentile,
        tail.beyond,
        tail.value,
        oncpu_tail.value,
        run_tail.percentile,
        run_tail.beyond,
        run_tail.value,
        samples.runq_wait_share(),
        run.setup_s,
    );
    let values = [
        stats::median(&run.setup_s),
        stats::median(&samples.wall_ms),
        tail.value,
        samples.wall_ms.len() as f64 / measured_s,
        run.peak_rss_mb,
        (run.tally.attempted - run.tally.failed) as f64 / run.tally.attempted as f64,
        run.fidelity.fig10_fp_gain_err_pp,
        run.fidelity.fig10_int_gain_err_pp,
        run.fidelity.fig03_int_idle_err_pp,
        run.fidelity.fig03_fp_idle_err_pp,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect()
}

fn per_layer_metrics(run: &PerLayerRun) -> Metrics {
    for name in run.values.keys() {
        assert!(
            PER_LAYER.iter().any(|(known, _)| known == name),
            "per-layer metric '{name}' is not declared"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, run.values.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

fn print_result(tally: Tally, metrics: &Metrics) {
    let all_finite = metrics.iter().all(|(_, value, _)| value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0 && all_finite,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// Scratch space of one run under `.bench_work/` in the working directory,
/// removed when the run ends.
pub struct WorkDir {
    root: PathBuf,
    next: u32,
}

impl WorkDir {
    fn create(workload: &str) -> std::io::Result<WorkDir> {
        let root = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir { root, next: 0 })
    }

    /// A fresh, not yet existing directory path inside the scratch space.
    pub fn fresh(&mut self, label: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{label}-{}", self.next))
    }

    /// Remove a directory made from [`Self::fresh`].
    pub fn discard(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Whether a run that started at `start` still has measuring time left;
/// every run gets at least one op.
pub fn keep_going(start: Instant, budget: Duration, ops: usize) -> bool {
    ops == 0 || start.elapsed() < budget
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            exit(2);
        }
    };
    let mut work = match WorkDir::create(&args.workload) {
        Ok(work) => work,
        Err(error) => {
            eprintln!("cannot create the scratch directory: {error}");
            exit(1);
        }
    };
    let spans_path =
        Path::new(".bench_work").join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let kind = match args.workload.as_str() {
        "reproduce" => Some(reports::Kind::Reproduce),
        "rerender" => Some(reports::Kind::Rerender),
        "serve_mix" => None,
        other => {
            eprintln!("unknown workload '{other}'\n{USAGE}");
            exit(2);
        }
    };
    let (tally, metrics) = match (kind, args.trace) {
        (Some(kind), false) => {
            let run = reports::end_to_end(kind, &args, &mut work);
            (run.tally, end_to_end_metrics(&run))
        }
        (Some(kind), true) => {
            let run = reports::per_layer(kind, &args, &mut work, &spans_path);
            (run.tally, per_layer_metrics(&run))
        }
        (None, false) => {
            let run = serve_mix::end_to_end(&args, &mut work);
            (run.tally, end_to_end_metrics(&run))
        }
        (None, true) => {
            let run = serve_mix::per_layer(&args, &mut work, &spans_path);
            (run.tally, per_layer_metrics(&run))
        }
    };
    drop(work);
    print_result(tally, &metrics);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let ok: Vec<String> = "--workload rerender --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&ok).unwrap();
        assert_eq!(args.workload, "rerender");
        assert_eq!(args.seed, 7);
        assert!(args.trace);
        for bad in [
            "--workload rerender --seed 7 --seconds 10",
            "--workload rerender --seed x --seconds 10 --trace 0",
            "--workload rerender --seed 7 --seconds 0 --trace 0",
            "--workload rerender --seed 7 --seconds 10 --trace 2",
            "--bogus 1",
        ] {
            let argv: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&argv).is_err(), "{bad}");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(name, _)| *name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
