//! The metric names later issues cite, with unit, direction and bound.
//!
//! This table is the single source of `BENCHMARK.json` (`bench manifest`
//! prints it; a unit test keeps the committed file equal to it).

use crate::workloads::Workload;

/// Which way is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Relative change from `a` to `b`, signed so that positive is worse.
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        match self {
            Better::Lower => (b - a) / a.abs(),
            Better::Higher => (a - b) / a.abs(),
        }
    }
}

/// One end-to-end metric: what a user of vcabench sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Definition, for the printed table and the README.
    pub what: &'static str,
}

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// Every workload reports every one of these with `--trace 0`.
///
/// Bounds are per metric, not per workload (the contract allows one), so
/// each is what the noisiest workload needs: about three times the widest
/// ten-seed spread measured on the 2-vCPU sandbox, capped at the contract's
/// ceiling of 25 % (see "Noise" in the README; the spreads are committed in
/// `results/BENCH_pr11.json`). Times are on the calibrated clock (`calib.rs`).
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "sim_s_per_wall_s",
        unit: "sim_s/s",
        better: Better::Higher,
        bound: 0.20,
        what: "simulated call-seconds delivered by successful ops per calibrated wall-second of the timed passes (cached_rerun: seconds served from the store)",
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median wall time of a successful op, each op on the calibrated clock (raw time / speed factor measured right after it)",
    },
    EndToEnd {
        name: "op_ms_tail",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "the workload's fixed tail percentile (p90 or p75, named in its `why`) of op wall time, calibrated clock",
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.10,
        what: "heap allocations during the timed passes per attempted op, from the counting global allocator (exact per seed; the bound covers seed-to-seed variation of trace_offline)",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
        what: "VmHWM of the workload's process at exit",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "median of three or more full set-ups (spec generation, scratch dirs, model loads, ground truth, store population, warm-up ops), calibrated clock",
    },
];

/// Look an end-to-end metric up.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

use Workload::{
    CachedRerun as Cached, OnlinePassive as Online, SimMatrix as Sim, SimMatrixParallel as Par,
    TraceOffline as Offline,
};

/// One per-layer metric. Layers are the crate names.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// `<crate>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Workloads whose end-to-end metrics this layer should move (the
    /// written-down interaction model `bench compare` localises with).
    pub moves: &'static [Workload],
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [Workload],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

const ENGINE: &[Workload] = &[Sim, Par, Online];
const PASSIVE: &[Workload] = &[Online, Offline];

/// Every workload reports every one of these with `--trace 1`; values come
/// from the workload's own spans where it exercises the layer and from the
/// fixed probe otherwise (see `layers.rs`).
pub const LAYERS: [Layer; 53] = [
    layer(
        "harness.run_ns_per_event.two_party",
        "ns",
        Better::Lower,
        ENGINE,
    ),
    layer(
        "harness.run_ns_per_event.competition",
        "ns",
        Better::Lower,
        &[Sim, Par],
    ),
    layer(
        "harness.run_ns_per_event.multiparty",
        "ns",
        Better::Lower,
        &[Sim, Par],
    ),
    layer("harness.run_events_per_sim_s", "1/s", Better::Lower, ENGINE),
    layer(
        "harness.run_allocs_per_event",
        "count",
        Better::Lower,
        ENGINE,
    ),
    layer(
        "harness.peak_queue_depth",
        "count",
        Better::Lower,
        &[Sim, Par],
    ),
    layer("simcore.queue_ns_per_op", "ns", Better::Lower, ENGINE),
    layer(
        "simcore.queue_allocs_per_op",
        "count",
        Better::Lower,
        ENGINE,
    ),
    layer("simcore.queue_est_share", "share", Better::Lower, ENGINE),
    layer(
        "netsim.link_ns_per_packet_full",
        "ns",
        Better::Lower,
        ENGINE,
    ),
    layer(
        "netsim.link_ns_per_packet_small",
        "ns",
        Better::Lower,
        ENGINE,
    ),
    layer("netsim.link_drop_share", "share", Better::Lower, &[]),
    layer("netsim.link_est_share", "share", Better::Lower, ENGINE),
    layer("netsim.forward_ns_per_event", "ns", Better::Lower, ENGINE),
    layer(
        "netsim.forward_allocs_per_event",
        "count",
        Better::Lower,
        ENGINE,
    ),
    layer("transport.tcp_ns_per_ack", "ns", Better::Lower, &[Sim, Par]),
    layer(
        "transport.rtp_recv_ns_per_packet",
        "ns",
        Better::Lower,
        ENGINE,
    ),
    layer(
        "congestion.gcc_ns_per_report",
        "ns",
        Better::Lower,
        &[Sim, Par],
    ),
    layer(
        "congestion.fbra_ns_per_report",
        "ns",
        Better::Lower,
        &[Sim, Par],
    ),
    layer(
        "congestion.teams_ns_per_report",
        "ns",
        Better::Lower,
        &[Sim, Par],
    ),
    layer("media.source_ns_per_frame", "ns", Better::Lower, ENGINE),
    layer("media.assemble_ns_per_packet", "ns", Better::Lower, ENGINE),
    layer("campaign.expand_us_per_run", "us", Better::Lower, &[Cached]),
    layer("campaign.hash_us_per_run", "us", Better::Lower, &[Cached]),
    layer(
        "campaign.store_load_mb_per_s",
        "MB/s",
        Better::Higher,
        &[Cached],
    ),
    layer(
        "campaign.store_bytes_per_run",
        "B",
        Better::Lower,
        &[Cached],
    ),
    layer("campaign.cached_invoke_ms", "ms", Better::Lower, &[Cached]),
    layer(
        "campaign.exec_overhead_share",
        "share",
        Better::Lower,
        &[Sim],
    ),
    layer("campaign.worker_idle_share", "share", Better::Lower, &[Par]),
    layer("telemetry.emit_ns_per_event", "ns", Better::Lower, PASSIVE),
    layer(
        "telemetry.events_per_engine_event",
        "ratio",
        Better::Lower,
        PASSIVE,
    ),
    layer(
        "telemetry.export_ns_per_event",
        "ns",
        Better::Lower,
        &[Offline],
    ),
    layer(
        "telemetry.export_mb_per_s",
        "MB/s",
        Better::Higher,
        &[Offline],
    ),
    layer(
        "telemetry.jsonl_bytes_per_event",
        "B",
        Better::Lower,
        &[Offline],
    ),
    layer(
        "telemetry.export_allocs_per_event",
        "count",
        Better::Lower,
        &[Offline],
    ),
    layer(
        "telemetry.validate_ns_per_event",
        "ns",
        Better::Lower,
        &[Offline],
    ),
    layer(
        "telemetry.import_ns_per_event",
        "ns",
        Better::Lower,
        &[Offline],
    ),
    layer(
        "telemetry.import_allocs_per_event",
        "count",
        Better::Lower,
        &[Offline],
    ),
    layer("telemetry.io_ms_per_run", "ms", Better::Lower, &[Offline]),
    layer("telemetry.dropped_events", "count", Better::Lower, &[]),
    layer("infer.extract_ns_per_event", "ns", Better::Lower, PASSIVE),
    layer("infer.windows_per_sim_s", "1/s", Better::Lower, PASSIVE),
    layer("infer.model_load_ms", "ms", Better::Lower, PASSIVE),
    layer("infer.predict_ns_per_window", "ns", Better::Lower, PASSIVE),
    layer("infer.bitrate_err_p50", "fraction", Better::Lower, &[]),
    layer(
        "fingerprint.extract_ns_per_event",
        "ns",
        Better::Lower,
        PASSIVE,
    ),
    layer("fingerprint.model_load_ms", "ms", Better::Lower, PASSIVE),
    layer(
        "fingerprint.classify_us_per_call",
        "us",
        Better::Lower,
        PASSIVE,
    ),
    layer("fingerprint.accuracy", "share", Better::Higher, &[]),
    layer("observe.span_ns_per_event", "ns", Better::Lower, PASSIVE),
    layer("observe.diagnose_us_per_run", "us", Better::Lower, PASSIVE),
    layer("observe.spans_per_sim_s", "1/s", Better::Lower, PASSIVE),
    layer("observe.diff_us_per_pair", "us", Better::Lower, &[]),
];

/// Look a layer metric up.
pub fn layer_metric(name: &str) -> Option<&'static Layer> {
    LAYERS.iter().find(|m| m.name == name)
}

/// Metrics `bench all` derives from two runs rather than one: not in
/// `BENCHMARK.json`, printed and stored beside the layer tables.
pub const DERIVED: [(&str, &str, &str); 2] = [
    (
        "campaign.parallel_efficiency",
        "share",
        "sim_matrix_parallel throughput / (jobs x sim_matrix throughput)",
    ),
    (
        "trace_overhead_share",
        "share",
        "traced op_ms_p50 / untraced op_ms_p50 - 1, per workload",
    ),
];

fn json_str(s: &str) -> String {
    serde_json::to_string(&serde_json::Value::String(s.to_string()))
        .expect("a string always serializes")
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--bin\", \"bench\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {:?}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.word()),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = LAYERS
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.word())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(LAYERS.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &LAYERS {
            assert!(unit_ok(m.unit), "{}", m.unit);
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(manifest_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest_json(),
            "regenerate with `bench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Better::Lower.worsening(100.0, 115.0) - 0.15).abs() < 1e-12);
        assert!((Better::Higher.worsening(100.0, 85.0) - 0.15).abs() < 1e-12);
        assert!(Better::Higher.worsening(100.0, 120.0) < 0.0);
    }
}
