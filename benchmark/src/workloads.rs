//! The five workloads and the generated inputs they run on.
//!
//! Inputs are campaign specs rendered as JSON text from `--seed`; set-up
//! writes them into the run's scratch directory and product code only ever
//! parses the generated file. `--seed` shifts every seed axis and touches
//! nothing else.

/// One of the five named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// The paper matrix through the cached campaign executor at `jobs = 1`.
    SimMatrix,
    /// The same campaign at `jobs = min(nproc, 4)`.
    SimMatrixParallel,
    /// The passive set through the three online harness paths.
    OnlinePassive,
    /// The passive set through trace export, validation and offline replay.
    TraceOffline,
    /// 100 %-hit invocations over a populated result store.
    CachedRerun,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::SimMatrix,
        Workload::SimMatrixParallel,
        Workload::OnlinePassive,
        Workload::TraceOffline,
        Workload::CachedRerun,
    ];

    /// The fixed name later issues cite.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimMatrix => "sim_matrix",
            Workload::SimMatrixParallel => "sim_matrix_parallel",
            Workload::OnlinePassive => "online_passive",
            Workload::TraceOffline => "trace_offline",
            Workload::CachedRerun => "cached_rerun",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; goes into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SimMatrix => {
                "111-run paper matrix via run_cached at jobs=1: engine-bound, telemetry and passive layers idle; any hot-path change must show or stay flat here; op_ms_tail=p90"
            }
            Workload::SimMatrixParallel => {
                "same campaign at jobs=min(nproc,4): executor idle tail, slot/lock cost and scaling efficiency that jobs=1 hides; digests must equal sim_matrix; op_ms_tail=p90"
            }
            Workload::OnlinePassive => {
                "48 two-party calls through the infer/fingerprint/observe online paths: telemetry emit to recorder with no serialization; flat when only export/import changes; op_ms_tail=p90"
            }
            Workload::TraceOffline => {
                "same calls via run_spec_traced, validate_jsonl and offline replay: JSONL export/parse is >90% of an op, the mirror image of sim_matrix; must agree with online; op_ms_tail=p75"
            }
            Workload::CachedRerun => {
                "100%-hit run_cached over the populated 111-record store: only campaign expand/hash/store parse work, engine idle; store changes show here and nowhere else; op_ms_tail=p75"
            }
        }
    }

    /// The percentile `op_ms_tail` reports on this workload: the highest of
    /// p75/p90/p95/p99 that keeps at least ten samples beyond it at the
    /// declared run length on the 2-core machine class (see README).
    pub fn tail_percentile(self) -> u32 {
        match self {
            Workload::SimMatrix | Workload::SimMatrixParallel | Workload::OnlinePassive => 90,
            Workload::TraceOffline | Workload::CachedRerun => 75,
        }
    }

    /// Whether ops run on more than one worker thread.
    pub fn is_parallel(self) -> bool {
        self == Workload::SimMatrixParallel
    }
}

/// Worker threads for the parallel paths: `min(nproc, 4)`.
pub fn parallel_jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(4)
}

/// First seed of every seed axis for `--seed <seed>`.
pub fn seed_base(seed: u64) -> u64 {
    seed * 1000 + 1
}

/// Seeds per passive-set cell, i.e. seed slices of twelve scenarios each;
/// `trace_offline` runs the first slice.
pub const PASSIVE_SEEDS: u64 = 4;

const KINDS: &str = r#"["Meet", "Teams", "Zoom"]"#;
const SWEEP_MBPS: &str = "[0.3, 0.5, 0.8, 1.0, 2.0, 10.0]";

fn two_party(label: &str, up: f64, down: f64, secs: f64, axes: &str) -> String {
    format!(
        r#"{{"label": "{label}", "base": {{"type": "two_party", "kind": "Zoom", "up": {{"constant_mbps": {up:?}}}, "down": {{"constant_mbps": {down:?}}}, "duration_secs": {secs:?}, "seed": 0}}, "axes": {{"kinds": {KINDS}, {axes}}}}}"#
    )
}

fn seeds(base: u64, count: u64) -> String {
    format!(r#""seeds": {{"base": {base}, "count": {count}}}"#)
}

/// The paper matrix as one campaign of 111 runs: two-party uplink and
/// downlink sweeps (3 kinds × 6 rates × 2 seeds, 60 s), competition
/// (3 incumbents × {IperfUp, IperfDown, Youtube} × {0.5, 2, 4} Mbps and
/// × Netflix × {2, 4} Mbps) and 6-party calls (3 kinds × 2 seeds, 40 s).
pub fn matrix_json(seed: u64) -> String {
    let base = seed_base(seed);
    let up = two_party(
        "up",
        1000.0,
        1000.0,
        60.0,
        &format!(r#""up_mbps": {SWEEP_MBPS}, {}"#, seeds(base, 2)),
    );
    let down = two_party(
        "down",
        1000.0,
        1000.0,
        60.0,
        &format!(r#""down_mbps": {SWEEP_MBPS}, {}"#, seeds(base, 2)),
    );
    let competition = |competitors: &str, capacities: &str| {
        format!(
            r#"{{"label": "vs", "base": {{"type": "competition", "incumbent": "Zoom", "competitor": "IperfUp", "capacity_mbps": 2.0, "seed": 0}}, "axes": {{"kinds": {KINDS}, "competitors": {competitors}, "capacity_mbps": {capacities}, {}}}}}"#,
            seeds(base, 1)
        )
    };
    let bulk = competition(r#"["IperfUp", "IperfDown", "Youtube"]"#, "[0.5, 2.0, 4.0]");
    // Netflix at 0.5 Mbps is left out: starved, it fetches over parallel
    // connections that `apps::abr`/`apps::netflix` walk in `HashMap` order,
    // so the run is not a pure function of its spec (the digest-repeat
    // check fails on every seed for Zoom). The cells return once that is
    // fixed in product code.
    let netflix = competition(r#"["Netflix"]"#, "[2.0, 4.0]");
    let multiparty = format!(
        r#"{{"label": "party", "base": {{"type": "multiparty", "kind": "Zoom", "n": 6, "duration_secs": 40.0, "seed": 0}}, "axes": {{"kinds": {KINDS}, {}}}}}"#,
        seeds(base, 2)
    );
    format!(r#"{{"name": "matrix", "scenarios": [{up}, {down}, {bulk}, {netflix}, {multiparty}]}}"#)
}

/// The passive set: two-party 3 kinds × {up 0.5, up 1.0, down 0.45,
/// unconstrained} × `seeds_per_cell` seeds, 20 s calls.
fn passive_json_with(name: &str, seed: u64, seeds_per_cell: u64) -> String {
    let axis = seeds(seed_base(seed), seeds_per_cell);
    let up = two_party(
        "up",
        1000.0,
        1000.0,
        20.0,
        &format!(r#""up_mbps": [0.5, 1.0], {axis}"#),
    );
    let down = two_party("down", 1000.0, 0.45, 20.0, &axis);
    let free = two_party("free", 1000.0, 1000.0, 20.0, &axis);
    format!(r#"{{"name": "{name}", "scenarios": [{up}, {down}, {free}]}}"#)
}

/// The 48-scenario passive set of `online_passive` and `trace_offline`.
pub fn passive_json(seed: u64) -> String {
    passive_json_with("passive", seed, PASSIVE_SEEDS)
}

/// The traced run's probe campaign: one seed of the passive set (12 runs),
/// small enough to populate twice and invoke cached a few times.
pub fn probe_json(seed: u64) -> String {
    passive_json_with("probe", seed, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Ctx;
    use crate::surface;

    fn expand(json: &str) -> Vec<surface::Run> {
        let campaign =
            surface::parse_campaign(Ctx::default(), json).expect("generated spec parses");
        surface::expand(Ctx::default(), &campaign).expect("generated spec expands")
    }

    #[test]
    fn generated_campaigns_have_the_documented_shape() {
        let matrix = expand(&matrix_json(1));
        assert_eq!(matrix.len(), 111);
        let class_count = |class: &str| {
            matrix
                .iter()
                .filter(|r| surface::spec_info(&r.spec).class == class)
                .count()
        };
        assert_eq!(class_count("two_party"), 72);
        assert_eq!(class_count("competition"), 33);
        assert_eq!(class_count("multiparty"), 6);
        assert_eq!(expand(&passive_json(1)).len(), 48);
        assert_eq!(expand(&probe_json(1)).len(), 12);
        let shaped = matrix
            .iter()
            .filter(|r| {
                let i = surface::spec_info(&r.spec);
                i.up_cap_mbps.is_some() || i.down_cap_mbps.is_some()
            })
            .count();
        assert_eq!(shaped, 72, "every sweep run is constant-shaped on one side");
    }

    #[test]
    fn seed_changes_every_spec_seed_and_nothing_else() {
        for (a, b) in [
            (matrix_json(1), matrix_json(2)),
            (passive_json(1), passive_json(2)),
            (probe_json(1), probe_json(2)),
        ] {
            let (a, b) = (expand(&a), expand(&b));
            assert_eq!(a.len(), b.len());
            for (ra, rb) in a.iter().zip(&b) {
                let (sa, sb) = (surface::spec_info(&ra.spec), surface::spec_info(&rb.spec));
                assert_eq!(sb.seed, sa.seed + 1000, "{}", ra.label);
                assert!(
                    surface::equal_but_for_seed(&ra.spec, &rb.spec),
                    "{} differs beyond its seed",
                    ra.label
                );
            }
        }
        // The same seed gives the same inputs.
        assert_eq!(matrix_json(3), matrix_json(3));
    }

    #[test]
    fn workload_names_round_trip_and_whys_fit_the_contract() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}: {}", w.name(), w.why().len());
            assert!(!w.why().contains('\n'));
            assert!(w
                .why()
                .ends_with(&format!("op_ms_tail=p{}", w.tail_percentile())));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
