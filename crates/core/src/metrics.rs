//! Evaluation metrics (§4 "Comparison Metrics") and the per-run report
//! row used by the figure harness.

use crate::json::{self, Value};
use snake_sim::{EnergyModel, GpuConfig, SimOutcome, SimStats};

/// One mechanism's results on one application — the columns of
/// Figs 16–19 and 25.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MechanismReport {
    /// Mechanism name.
    pub mechanism: String,
    /// Application name.
    pub app: String,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Coverage: correctly predicted demand addresses / all demand
    /// addresses (Fig 16).
    pub coverage: f64,
    /// Accuracy: *timely* correctly predicted / all demand addresses
    /// (Fig 17).
    pub accuracy: f64,
    /// Precision: useful prefetches / issued prefetches.
    pub precision: f64,
    /// L1 hit rate (Fig 25).
    pub l1_hit_rate: f64,
    /// Reservation-fail share of L1 accesses (Fig 3).
    pub reservation_fail_rate: f64,
    /// Interconnect utilization (Fig 4).
    pub noc_utilization: f64,
    /// Memory-stall share of all-stall cycles (Fig 5).
    pub memory_stall_fraction: f64,
    /// Total energy in joules (Fig 19).
    pub energy_j: f64,
    /// Total cycles.
    pub cycles: u64,
    /// Median fill→first-use latency in cycles — the timeliness of the
    /// prefetches that did get used (0 when none were).
    pub timeliness_p50: u64,
    /// 90th-percentile fill→first-use latency: the tail of "fetched
    /// far too early" lines still occupying SRAM.
    pub timeliness_p90: u64,
    /// Prefetched lines that were evicted without ever being used.
    pub evicted_unused: u64,
    /// Issue-slot taxonomy: fraction of scheduler-cycles that issued.
    pub stall_issued: f64,
    /// Fraction with no runnable warp in the scheduler's partition.
    pub stall_no_warp: f64,
    /// Fraction absorbing memory-use latency (L1 hit/store settle).
    pub stall_barrier: f64,
    /// Fraction stalled on a non-memory data dependency.
    pub stall_scoreboard: f64,
    /// Fraction stalled waiting on outstanding loads (stall-on-use).
    pub stall_mem_data: f64,
    /// Fraction rejected by a full MSHR (or no evictable way).
    pub stall_mem_mshr: f64,
    /// Fraction rejected by a full miss queue without NoC backpressure.
    pub stall_mem_missq: f64,
    /// Fraction rejected by a full miss queue under NoC backpressure.
    pub stall_mem_noc: f64,
}

impl MechanismReport {
    /// Builds a report row from a finished run.
    pub fn from_outcome(
        mechanism: impl Into<String>,
        app: impl Into<String>,
        outcome: &SimOutcome,
        cfg: &GpuConfig,
        energy: &EnergyModel,
        has_prefetcher: bool,
    ) -> Self {
        let s = &outcome.stats;
        MechanismReport {
            mechanism: mechanism.into(),
            app: app.into(),
            ipc: s.ipc(),
            coverage: s.coverage(),
            accuracy: s.timely_coverage(),
            precision: s.prefetch.precision(),
            l1_hit_rate: s.l1.hit_rate(),
            reservation_fail_rate: s.l1.reservation_fail_rate(),
            noc_utilization: s.noc_utilization(u64::from(cfg.noc_bytes_per_cycle)),
            memory_stall_fraction: s.memory_stall_fraction(),
            energy_j: energy.evaluate(s, cfg, has_prefetcher).total_j(),
            cycles: s.cycles,
            timeliness_p50: outcome.lifecycle.fill_to_first_use.p50(),
            timeliness_p90: outcome.lifecycle.fill_to_first_use.p90(),
            evicted_unused: s.prefetch.evicted_unused,
            stall_issued: s.stall.fraction(s.stall.issued),
            stall_no_warp: s.stall.fraction(s.stall.no_warp),
            stall_barrier: s.stall.fraction(s.stall.barrier),
            stall_scoreboard: s.stall.fraction(s.stall.scoreboard),
            stall_mem_data: s.stall.fraction(s.stall.mem_data),
            stall_mem_mshr: s.stall.fraction(s.stall.mem_struct_mshr),
            stall_mem_missq: s.stall.fraction(s.stall.mem_struct_missq),
            stall_mem_noc: s.stall.fraction(s.stall.mem_struct_noc),
        }
    }

    /// Serializes this row as a compact JSON object. Floats use
    /// shortest round-trip formatting, so
    /// `from_json(&to_json().to_string())` reproduces the row
    /// bit-exactly — the property the sweep manifest's byte-identical
    /// resume guarantee relies on.
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("mechanism".into(), Value::str(&self.mechanism)),
            ("app".into(), Value::str(&self.app)),
            ("ipc".into(), Value::f64(self.ipc)),
            ("coverage".into(), Value::f64(self.coverage)),
            ("accuracy".into(), Value::f64(self.accuracy)),
            ("precision".into(), Value::f64(self.precision)),
            ("l1_hit_rate".into(), Value::f64(self.l1_hit_rate)),
            (
                "reservation_fail_rate".into(),
                Value::f64(self.reservation_fail_rate),
            ),
            ("noc_utilization".into(), Value::f64(self.noc_utilization)),
            (
                "memory_stall_fraction".into(),
                Value::f64(self.memory_stall_fraction),
            ),
            ("energy_j".into(), Value::f64(self.energy_j)),
            ("cycles".into(), Value::u64(self.cycles)),
            ("timeliness_p50".into(), Value::u64(self.timeliness_p50)),
            ("timeliness_p90".into(), Value::u64(self.timeliness_p90)),
            ("evicted_unused".into(), Value::u64(self.evicted_unused)),
            ("stall_issued".into(), Value::f64(self.stall_issued)),
            ("stall_no_warp".into(), Value::f64(self.stall_no_warp)),
            ("stall_barrier".into(), Value::f64(self.stall_barrier)),
            ("stall_scoreboard".into(), Value::f64(self.stall_scoreboard)),
            ("stall_mem_data".into(), Value::f64(self.stall_mem_data)),
            ("stall_mem_mshr".into(), Value::f64(self.stall_mem_mshr)),
            ("stall_mem_missq".into(), Value::f64(self.stall_mem_missq)),
            ("stall_mem_noc".into(), Value::f64(self.stall_mem_noc)),
        ])
    }

    /// Rebuilds a row from the object produced by [`to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    ///
    /// [`to_json`]: MechanismReport::to_json
    pub fn from_json(v: &Value) -> Result<Self, String> {
        fn str_field(v: &Value, key: &str) -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field {key:?}"))
        }
        fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
        }
        fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing or non-integer field {key:?}"))
        }
        Ok(MechanismReport {
            mechanism: str_field(v, "mechanism")?,
            app: str_field(v, "app")?,
            ipc: f64_field(v, "ipc")?,
            coverage: f64_field(v, "coverage")?,
            accuracy: f64_field(v, "accuracy")?,
            precision: f64_field(v, "precision")?,
            l1_hit_rate: f64_field(v, "l1_hit_rate")?,
            reservation_fail_rate: f64_field(v, "reservation_fail_rate")?,
            noc_utilization: f64_field(v, "noc_utilization")?,
            memory_stall_fraction: f64_field(v, "memory_stall_fraction")?,
            energy_j: f64_field(v, "energy_j")?,
            cycles: u64_field(v, "cycles")?,
            timeliness_p50: u64_field(v, "timeliness_p50")?,
            timeliness_p90: u64_field(v, "timeliness_p90")?,
            evicted_unused: u64_field(v, "evicted_unused")?,
            stall_issued: f64_field(v, "stall_issued")?,
            stall_no_warp: f64_field(v, "stall_no_warp")?,
            stall_barrier: f64_field(v, "stall_barrier")?,
            stall_scoreboard: f64_field(v, "stall_scoreboard")?,
            stall_mem_data: f64_field(v, "stall_mem_data")?,
            stall_mem_mshr: f64_field(v, "stall_mem_mshr")?,
            stall_mem_missq: f64_field(v, "stall_mem_missq")?,
            stall_mem_noc: f64_field(v, "stall_mem_noc")?,
        })
    }

    /// Parses a row straight from JSON text (see [`from_json`]).
    ///
    /// # Errors
    ///
    /// Returns the parse or field error as a string.
    ///
    /// [`from_json`]: MechanismReport::from_json
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        Self::from_json(&v)
    }

    /// Speedup of this run over a baseline run (Fig 18's y-axis).
    pub fn speedup_over(&self, baseline: &MechanismReport) -> f64 {
        if self.ipc == 0.0 || baseline.ipc == 0.0 {
            return 1.0;
        }
        self.ipc / baseline.ipc
    }

    /// Energy normalized to a baseline run (Fig 19's y-axis).
    pub fn energy_vs(&self, baseline: &MechanismReport) -> f64 {
        if baseline.energy_j == 0.0 {
            return 1.0;
        }
        self.energy_j / baseline.energy_j
    }
}

/// Geometric mean of positive values (the standard summary for
/// speedups across applications). Returns 1.0 for an empty slice.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean. Returns 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Convenience: coverage/accuracy straight from raw stats (used by
/// tests and the analysis module).
pub fn coverage_of(stats: &SimStats) -> f64 {
    stats.coverage()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_sim::StopReason;

    fn outcome(ipc_instr: u64, cycles: u64) -> SimOutcome {
        SimOutcome {
            stats: SimStats {
                cycles,
                instructions: ipc_instr,
                demand_loads: 100,
                ..Default::default()
            },
            stop: StopReason::Completed,
            lifecycle: Default::default(),
            series: None,
            host: None,
        }
    }

    #[test]
    fn speedup_and_energy_ratios() {
        let cfg = GpuConfig::scaled(1);
        let em = EnergyModel::volta_like();
        let base = MechanismReport::from_outcome(
            "baseline",
            "app",
            &outcome(1000, 1000),
            &cfg,
            &em,
            false,
        );
        let fast =
            MechanismReport::from_outcome("snake", "app", &outcome(1000, 800), &cfg, &em, true);
        assert!((fast.speedup_over(&base) - 1.25).abs() < 1e-9);
        assert!(fast.energy_vs(&base) < 1.0, "shorter run, less energy");
    }

    #[test]
    fn geo_mean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 1.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn report_json_round_trip_is_bit_exact() {
        let cfg = GpuConfig::scaled(1);
        let em = EnergyModel::volta_like();
        let mut row =
            MechanismReport::from_outcome("snake", "lps", &outcome(12345, 6789), &cfg, &em, true);
        row.ipc = 1.0 / 3.0; // force a non-terminating decimal
        row.cycles = u64::MAX - 7; // beyond f64 precision
        row.stall_mem_mshr = 2.0 / 7.0; // breakdown columns too
        let text = row.to_json().to_string();
        let back = MechanismReport::from_json_str(&text).unwrap();
        assert_eq!(back, row);
        // Byte-identical re-serialization, the manifest invariant.
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn report_json_rejects_missing_fields() {
        let err = MechanismReport::from_json_str(r#"{"mechanism":"m","app":"a"}"#).unwrap_err();
        assert!(err.contains("ipc"), "{err}");
        assert!(MechanismReport::from_json_str("[1,2]").is_err());
        assert!(MechanismReport::from_json_str("not json").is_err());
    }

    #[test]
    fn zero_ipc_degrades_gracefully() {
        let cfg = GpuConfig::scaled(1);
        let em = EnergyModel::volta_like();
        let a = MechanismReport::from_outcome("a", "app", &outcome(0, 1000), &cfg, &em, false);
        let b = MechanismReport::from_outcome("b", "app", &outcome(10, 1000), &cfg, &em, false);
        assert_eq!(b.speedup_over(&a), 1.0);
    }
}
