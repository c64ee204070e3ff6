//! The result line: `{"correct", "attempted", "failed", "metrics"}`, with
//! every metric named and carrying its unit.

use crate::batch::share;
use crate::stats::median;
use crate::trace::{Layer, LayerTimes};
use crate::workload::Qor;
use mm_engine::json::{self, ObjBuilder, Value};
use mm_engine::{Job, JobCacheInfo, JobOutcome, JobResult};
use std::time::{Duration, Instant};

/// What an untraced run measured; see [`Report::end_to_end`].
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Median set-up CPU seconds.
    pub setup_s: f64,
    /// Ok jobs per CPU second.
    pub jobs_per_cpu_s: f64,
    /// Time of one operation in ms: the median job's CPU time on the
    /// batch workloads, the p95 request latency on `serve_warm`.
    pub op_time_ms: f64,
    /// Peak RSS of the process that runs the flow, in MB.
    pub peak_rss_mb: f64,
    /// Quality of result over the run's distinct records.
    pub qor: Qor,
}

/// The spec, cache and serve layers of a traced run; see
/// [`Report::serve_layers`].
#[derive(Debug, Clone, Default)]
pub struct ServeLayers {
    /// Median `load_spec` time per request.
    pub spec_load_ms: f64,
    /// Stage-graph nodes served from the cache (`summary` frames).
    pub cache_hits: f64,
    /// Stage-graph nodes recomputed (`summary` frames).
    pub cache_misses: f64,
    /// Cache writes of an in-process engine replaying the requests.
    pub cache_writes: f64,
    /// Median `StageCache::get` time.
    pub cache_get_ms: f64,
    /// Median `StageCache::put` time.
    pub cache_put_ms: f64,
    /// Median latency of a `hit` request.
    pub hit_ms_p50: f64,
    /// Median time from sending a request to its `accepted` frame.
    pub accept_ms_p50: f64,
    /// Median time from sending a request to its first record.
    pub first_record_ms_p50: f64,
    /// Largest `peak_queued` of any shard.
    pub queue_peak: f64,
    /// `busy` answers.
    pub busy_frames: f64,
    /// 99th-percentile lateness of the open-loop generator.
    pub gen_lag_ms_p99: f64,
}

/// A run's outcome.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted (jobs, or serve requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why, one line per failure or failed check.
    pub problems: Vec<String>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new(attempted: u64, failed: u64, problems: Vec<String>) -> Self {
        Self {
            attempted,
            failed,
            problems,
            metrics: Vec::new(),
        }
    }

    /// Whether every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Adds a metric; a value that is not a finite number (a clock or
    /// `/proc` read that failed, a failed request in the tail) fails the
    /// run.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problems
                .push(format!("{name} is {value}, not a number"));
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds the end-to-end metrics of an untraced run: the same set on
    /// every workload, the `end_to_end` list of `BENCHMARK.json`. Times
    /// are at the reference host speed; `ok_frac` follows from the
    /// report's counts.
    pub fn end_to_end(&mut self, e: &EndToEnd) {
        self.metric("setup_s", e.setup_s, "s");
        self.metric("jobs_per_cpu_s", e.jobs_per_cpu_s, "jobs/cpu-s");
        self.metric("op_time_ms", e.op_time_ms, "ms");
        self.metric("peak_rss_mb", e.peak_rss_mb, "MB");
        let ok_frac = (self.attempted - self.failed) as f64 / self.attempted as f64;
        self.metric("ok_frac", ok_frac, "fraction");
        self.metric("qor.width_sum", e.qor.width_sum, "tracks");
        self.metric("qor.speedup_geomean", e.qor.speedup_geomean(), "x");
        self.metric("qor.wires_sum", e.qor.wires_sum, "wires");
    }

    /// Adds the flow-layer metrics of a traced run: the generated inputs
    /// (`gen_s` seconds, `luts` LUTs) and the layer times of the
    /// re-derived jobs; `overhead` is `trace.overhead` (see
    /// [`crate::batch::overhead`]).
    pub fn layers(&mut self, gen_s: f64, luts: usize, t: &LayerTimes, overhead: f64) {
        self.metric("gen.busy_s", gen_s, "s");
        self.metric("gen.luts", luts as f64, "count");
        let c = &t.counters;
        self.metric("place.calls", c.place_calls as f64, "count");
        self.metric("place.busy_s", t.busy(Layer::Place), "s");
        self.metric("place.moves", c.place_moves as f64, "count");
        self.metric("place.share", share(t, Layer::Place), "fraction");
        self.metric("tunable.busy_s", t.busy(Layer::Tunable), "s");
        self.metric("rrg.builds", c.rrg_builds as f64, "count");
        self.metric("rrg.busy_s", t.busy(Layer::Rrg) + c.probe_rrg_s, "s");
        self.metric("width.searches", c.width_searches as f64, "count");
        self.metric("width.probes", c.probes as f64, "count");
        self.metric("width.probes_failed", c.probes_failed as f64, "count");
        let useful = if c.probes > 0 {
            (c.probes - c.probes_failed) as f64 / c.probes as f64
        } else {
            0.0
        };
        self.metric("width.useful_frac", useful, "fraction");
        self.metric("width.busy_s", t.busy(Layer::Width), "s");
        self.metric("width.failed_s", c.failed_probe_s, "s");
        self.metric("width.share", share(t, Layer::Width), "fraction");
        self.metric("route.calls", c.route_calls as f64, "count");
        self.metric("route.iterations", c.route_iterations as f64, "count");
        self.metric("route.retries", c.route_retries as f64, "count");
        self.metric("route.busy_s", t.busy(Layer::Route), "s");
        self.metric("verify.busy_s", t.busy(Layer::Verify), "s");
        self.metric("config.busy_s", t.busy(Layer::Config), "s");
        self.metric("trace.coverage", t.coverage(), "fraction");
        self.metric("trace.overhead", overhead, "fraction");
    }

    /// Times the engine-side calls every job passes through —
    /// `Job::fingerprint`, `Job::compile` — and the record codec on the
    /// run's own records: `JobResult::to_json_line` (re-encoding each
    /// record from its parsed outcome), `json::parse` plus
    /// `protocol::classify` (what a client does per line).
    pub fn engine_calls(&mut self, jobs: &[Job], records: &[Option<String>]) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut fingerprint = Vec::new();
        let mut compile = Vec::new();
        for job in jobs {
            let t = Instant::now();
            std::hint::black_box(job.fingerprint());
            fingerprint.push(ms(t.elapsed()));
            let t = Instant::now();
            let _ = std::hint::black_box(job.compile());
            compile.push(ms(t.elapsed()));
        }
        self.metric("job.fingerprint_ms", median(&fingerprint), "ms");
        self.metric("plan.compile_ms", median(&compile), "ms");

        let mut bytes = Vec::new();
        let mut encode = Vec::new();
        let mut parse = Vec::new();
        for (job, line) in jobs.iter().zip(records) {
            let Some(line) = line else { continue };
            bytes.push(line.len() as f64);
            let t = Instant::now();
            let parsed = json::parse(line);
            let _ = std::hint::black_box(mm_engine::protocol::classify(line));
            parse.push(t.elapsed().as_secs_f64() * 1e6);
            let outcome = parsed.ok().and_then(|v| {
                v.get("metrics")
                    .and_then(|m| JobOutcome::from_value(m, &job.name))
            });
            if let Some(outcome) = outcome {
                let result = JobResult {
                    name: job.name.clone(),
                    flow: job.flow,
                    outcome: Ok(outcome),
                    cache: JobCacheInfo::default(),
                    duration: Duration::ZERO,
                    stages: Vec::new(),
                };
                let t = Instant::now();
                std::hint::black_box(result.to_json_line());
                encode.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        self.metric("record.bytes", median(&bytes), "bytes");
        self.metric("record.encode_us", median(&encode), "us");
        self.metric("record.parse_us", median(&parse), "us");
    }

    /// Adds the spec, cache and serve layers of a traced run; the batch
    /// workloads never touch them and pass zeros.
    pub fn serve_layers(&mut self, s: &ServeLayers) {
        self.metric("spec.load_ms", s.spec_load_ms, "ms");
        self.metric("cache.hits", s.cache_hits, "count");
        self.metric("cache.misses", s.cache_misses, "count");
        self.metric("cache.writes", s.cache_writes, "count");
        let lookups = s.cache_hits + s.cache_misses;
        let hit_frac = if lookups > 0.0 {
            s.cache_hits / lookups
        } else {
            0.0
        };
        self.metric("cache.hit_frac", hit_frac, "fraction");
        self.metric("cache.get_ms", s.cache_get_ms, "ms");
        self.metric("cache.put_ms", s.cache_put_ms, "ms");
        self.metric("serve.hit_ms_p50", s.hit_ms_p50, "ms");
        self.metric("serve.accept_ms_p50", s.accept_ms_p50, "ms");
        self.metric("serve.first_record_ms_p50", s.first_record_ms_p50, "ms");
        self.metric("serve.queue_peak", s.queue_peak, "count");
        self.metric("serve.busy_frames", s.busy_frames, "count");
        self.metric("serve.gen_lag_ms_p99", s.gen_lag_ms_p99, "ms");
    }

    /// The result line.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let metrics = Value::Obj(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    (
                        name.clone(),
                        ObjBuilder::new()
                            .field("value", *value)
                            .field("unit", *unit)
                            .build(),
                    )
                })
                .collect(),
        );
        ObjBuilder::new()
            .field("correct", self.correct())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
            .build()
            .to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
    fn manifest(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let manifest = json::parse(&text).expect("BENCHMARK.json parses");
        let field = |m: &Value, key: &str| m.get(key).and_then(Value::as_str).unwrap().to_string();
        manifest
            .get(list)
            .and_then(Value::as_arr)
            .expect("a metric list")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn every_workload_reports_the_manifests_end_to_end_metrics() {
        let mut report = Report::new(4, 1, Vec::new());
        report.end_to_end(&EndToEnd::default());
        let reported: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|(name, _, unit)| (name.clone(), (*unit).to_string()))
            .collect();
        assert_eq!(reported, manifest("end_to_end"));
        assert_eq!(report.metrics[4].1, 0.75, "ok_frac");
    }

    #[test]
    fn every_traced_run_reports_the_manifests_per_layer_metrics() {
        // The calls both traced runs make, in their order.
        let mut report = Report::new(1, 0, Vec::new());
        report.layers(0.0, 0, &LayerTimes::default(), 0.0);
        report.engine_calls(&[], &[]);
        report.serve_layers(&ServeLayers::default());
        let mut reported: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|(name, _, unit)| (name.clone(), (*unit).to_string()))
            .collect();
        let mut listed = manifest("per_layer");
        reported.sort();
        listed.sort();
        assert_eq!(reported, listed);
    }

    #[test]
    fn a_metric_that_is_not_a_number_fails_the_run() {
        let mut report = Report::new(1, 0, Vec::new());
        report.metric("op_time_ms", 3.0, "ms");
        assert!(report.correct());
        report.metric("peak_rss_mb", f64::NAN, "MB");
        assert!(!report.correct());
    }
}
