//! Differential test of campaign expansion against the code it replaced.
//!
//! Until the odometer, `expand_template` built the product level by level:
//! at every axis it cloned each spec so far and formatted a longer label
//! for it. That body lives on here, test-only, as the oracle: over
//! generated campaigns — all three topologies, any subset of the six axes,
//! repeated values, templates sharing a label prefix, and inputs either
//! side must refuse — both expansions return the same `(index, label,
//! spec)` runs or the same error text, and every spec's canonical JSON is
//! the old preimage, the compact JSON of its normalized copy.

use super::{Axes, CampaignSpec, ExpandedRun, ScenarioTemplate, SeedAxis};
use crate::spec::{
    float_slug, slug, ClientKnobs, CompetitionSpec, CompetitorSpec, MultipartySpec, ScenarioSpec,
    TwoPartySpec,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use vcabench_netsim::RateProfile;
use vcabench_simcore::SimTime;
use vcabench_vca::VcaKind;

/// The old `CampaignSpec::expand`, `self` spelled `this`.
fn oracle_expand(this: &CampaignSpec) -> Result<Vec<ExpandedRun>, String> {
    if this.name.trim().is_empty() {
        return Err("campaign: empty name".to_string());
    }
    if this.scenarios.is_empty() {
        return Err("campaign: no scenarios".to_string());
    }
    let mut runs = Vec::new();
    for (ti, template) in this.scenarios.iter().enumerate() {
        let axes = template.axes.as_ref().unwrap_or(&Axes::EMPTY);
        axes.check_compatible(&template.base)
            .map_err(|e| format!("scenario #{ti}: {e}"))?;
        let prefix = template.label.clone().unwrap_or_else(|| this.name.clone());
        expand_template(&template.base, axes, &prefix, &mut runs)
            .map_err(|e| format!("scenario #{ti}: {e}"))?;
    }
    for run in &runs {
        run.spec
            .validate()
            .map_err(|e| format!("run `{}`: {e}", run.label))?;
    }
    let mut labels: Vec<&str> = runs.iter().map(|r| r.label.as_str()).collect();
    labels.sort_unstable();
    if let Some(dup) = labels.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("campaign: duplicate run label `{}`", dup[0]));
    }
    Ok(runs)
}

/// Cartesian expansion in the fixed nesting order
/// kinds → competitors → capacities → uplinks → downlinks → seeds.
fn expand_template(
    base: &ScenarioSpec,
    axes: &Axes,
    prefix: &str,
    out: &mut Vec<ExpandedRun>,
) -> Result<(), String> {
    // Each level: (label-suffix, spec-so-far). A missing axis keeps the
    // previous level untouched.
    let mut level: Vec<(String, ScenarioSpec)> = vec![(slug(prefix), base.clone())];

    if let Some(kinds) = &axes.kinds {
        level = product(level, kinds, |spec, kind| {
            match spec {
                ScenarioSpec::TwoParty(s) => s.kind = *kind,
                ScenarioSpec::Competition(s) => s.incumbent = *kind,
                ScenarioSpec::Multiparty(s) => s.kind = *kind,
            }
            slug(kind.name())
        });
    }
    if let Some(competitors) = &axes.competitors {
        level = product(level, competitors, |spec, competitor| {
            if let ScenarioSpec::Competition(s) = spec {
                s.competitor = *competitor;
            }
            format!("vs_{}", competitor.tag())
        });
    }
    if let Some(caps) = &axes.capacity_mbps {
        level = product(level, caps, |spec, cap| {
            if let ScenarioSpec::Competition(s) = spec {
                s.capacity_mbps = *cap;
            }
            float_slug(*cap)
        });
    }
    if let Some(ups) = &axes.up_mbps {
        level = product(level, ups, |spec, mbps| {
            if let ScenarioSpec::TwoParty(s) = spec {
                s.up = RateProfile::constant_mbps(*mbps);
            }
            format!("up{}", float_slug(*mbps))
        });
    }
    if let Some(downs) = &axes.down_mbps {
        level = product(level, downs, |spec, mbps| {
            if let ScenarioSpec::TwoParty(s) = spec {
                s.down = RateProfile::constant_mbps(*mbps);
            }
            format!("down{}", float_slug(*mbps))
        });
    }
    if let Some(seed_axis) = &axes.seeds {
        let seeds = seed_axis.seeds();
        level = product(level, &seeds, |spec, seed| {
            spec.set_seed(*seed);
            format!("s{seed}")
        });
    }

    for (label, spec) in level {
        out.push(ExpandedRun {
            index: out.len(),
            label,
            spec,
        });
    }
    Ok(())
}

fn product<A>(
    level: Vec<(String, ScenarioSpec)>,
    values: &[A],
    mut apply: impl FnMut(&mut ScenarioSpec, &A) -> String,
) -> Vec<(String, ScenarioSpec)> {
    let mut next = Vec::with_capacity(level.len() * values.len());
    for (label, spec) in level {
        for value in values {
            let mut spec = spec.clone();
            let suffix = apply(&mut spec, value);
            next.push((format!("{label}_{suffix}"), spec));
        }
    }
    next
}

fn pick<T: Clone>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.usize_in(0, items.len())].clone()
}

/// True one time in `n`.
fn one_in(rng: &mut TestRng, n: usize) -> bool {
    rng.usize_in(0, n) == 0
}

fn kind(rng: &mut TestRng) -> VcaKind {
    pick(rng, &[VcaKind::Meet, VcaKind::Teams, VcaKind::Zoom])
}

/// An axis rate or capacity: few distinct values, so they repeat, and now
/// and then one an axis or a spec must refuse.
fn mbps(rng: &mut TestRng) -> f64 {
    if one_in(rng, 48) {
        return pick(rng, &[0.0, -1.0, f64::INFINITY]);
    }
    pick(rng, &[0.25, 0.5, 1.0, 1.25, 2.0, 10.0, 1000.0])
}

fn profile(rng: &mut TestRng) -> RateProfile {
    let profile = RateProfile::constant_mbps(pick(rng, &[0.5, 1.0, 1000.0]));
    if one_in(rng, 3) {
        profile.step(SimTime::from_secs(60), 0.25e6)
    } else {
        profile
    }
}

fn duration(rng: &mut TestRng) -> f64 {
    if one_in(rng, 48) {
        0.0
    } else {
        pick(rng, &[20.0, 60.0, 150.0])
    }
}

/// A base spec of the given topology (0, 1, 2): every optional field
/// either way, and sometimes a value `validate` refuses.
fn base(rng: &mut TestRng, topology: usize) -> ScenarioSpec {
    let seed = pick(rng, &[0, 1, 7]);
    match topology {
        0 => ScenarioSpec::TwoParty(TwoPartySpec {
            kind: kind(rng),
            up: profile(rng),
            down: profile(rng),
            duration_secs: duration(rng),
            seed,
            knobs: pick(
                rng,
                &[
                    None,
                    None,
                    Some((None, None, None)),
                    Some((Some(true), Some(0.1), Some(2.0))),
                    Some((Some(false), None, None)),
                    Some((None, Some(0.5), Some(0.5))),
                    Some((None, Some(1.0), None)),
                ],
            )
            .map(
                |(teams_width_bug, min_rate_mbps, max_rate_mbps)| ClientKnobs {
                    teams_width_bug,
                    min_rate_mbps,
                    max_rate_mbps,
                },
            ),
        }),
        1 => {
            let vca = kind(rng);
            let competitor = pick(
                rng,
                &[
                    CompetitorSpec::Vca(vca),
                    CompetitorSpec::IperfUp,
                    CompetitorSpec::IperfDown,
                    CompetitorSpec::Netflix,
                    CompetitorSpec::Youtube,
                ],
            );
            let mut spec = CompetitionSpec::paper(kind(rng), competitor, mbps(rng), seed);
            if one_in(rng, 3) {
                spec.competitor_start_secs = pick(rng, &[None, Some(10.0)]);
                spec.competitor_duration_secs = pick(rng, &[None, Some(40.0)]);
                spec.total_secs = pick(rng, &[None, Some(210.0), Some(210.0), Some(60.0)]);
            }
            ScenarioSpec::Competition(spec)
        }
        _ => ScenarioSpec::Multiparty(MultipartySpec {
            kind: kind(rng),
            n: if one_in(rng, 48) {
                pick(rng, &[1, 65])
            } else {
                pick(rng, &[2, 3, 6])
            },
            pin_c1: pick(rng, &[None, Some(false), Some(true)]),
            duration_secs: duration(rng),
            seed,
        }),
    }
}

/// 1–3 draws, a repeated value kept one time in eight (a repeat makes a
/// duplicate label), and rarely none (an empty axis is refused).
fn values<T: PartialEq>(rng: &mut TestRng, mut value: impl FnMut(&mut TestRng) -> T) -> Vec<T> {
    let n = if one_in(rng, 64) {
        0
    } else {
        rng.usize_in(1, 4)
    };
    let repeats = one_in(rng, 8);
    let mut values = Vec::new();
    for _ in 0..n {
        let v = value(rng);
        if repeats || !values.contains(&v) {
            values.push(v);
        }
    }
    values
}

fn seed_axis(rng: &mut TestRng) -> SeedAxis {
    match rng.usize_in(0, 32) {
        0 => SeedAxis::Range {
            base: pick(rng, &[u64::MAX - 1, 5]),
            count: pick(rng, &[0, 3, (1 << 20) + 1]),
        },
        1..=12 => SeedAxis::Range {
            base: pick(rng, &[0, 1, 41]),
            count: rng.usize_in(1, 4) as u64,
        },
        _ => SeedAxis::List(values(rng, |rng| pick(rng, &[0, 1, 2, 41]))),
    }
}

/// Any subset of the six axes: the ones `base` takes often, the others
/// seldom (so that a refusal is generated but does not swamp the runs).
fn axes(rng: &mut TestRng, base: &ScenarioSpec) -> Option<Axes> {
    if one_in(rng, 6) {
        return None;
    }
    let (two_party, competition) = (
        matches!(base, ScenarioSpec::TwoParty(_)),
        matches!(base, ScenarioSpec::Competition(_)),
    );
    let mut present = |applies: bool| one_in(rng, if applies { 2 } else { 64 });
    let [kinds, up, down, cap, competitors, seeds] = [
        present(true),
        present(two_party),
        present(two_party),
        present(competition),
        present(competition),
        present(true),
    ];
    Some(Axes {
        kinds: kinds.then(|| values(rng, kind)),
        up_mbps: up.then(|| values(rng, mbps)),
        down_mbps: down.then(|| values(rng, mbps)),
        capacity_mbps: cap.then(|| values(rng, mbps)),
        competitors: competitors.then(|| {
            values(rng, |rng| {
                pick(
                    rng,
                    &[
                        CompetitorSpec::Vca(VcaKind::Zoom),
                        CompetitorSpec::Vca(VcaKind::Meet),
                        CompetitorSpec::IperfUp,
                        CompetitorSpec::Netflix,
                    ],
                )
            })
        }),
        seeds: seeds.then(|| seed_axis(rng)),
    })
}

/// 1–3 templates (rarely none) whose labels come from a small set, so that
/// two templates often share a prefix and sometimes a whole label.
fn campaign(rng: &mut TestRng) -> CampaignSpec {
    let templates = if one_in(rng, 64) {
        0
    } else {
        rng.usize_in(1, 4)
    };
    let scenarios = (0..templates)
        .map(|_| {
            let topology = rng.usize_in(0, 3);
            let base = base(rng, topology);
            ScenarioTemplate {
                label: pick(
                    rng,
                    &[None, None, Some("grid"), Some("Grid A"), Some("grid-a")],
                )
                .map(str::to_string),
                axes: axes(rng, &base),
                base,
            }
        })
        .collect();
    CampaignSpec {
        name: if one_in(rng, 64) {
            " "
        } else {
            pick(rng, &["sweep", "grid", "Grid A"])
        }
        .to_string(),
        scenarios,
    }
}

/// Both expansions agree, and every base and every run spec hashes the old
/// preimage.
fn assert_agree(campaign: &CampaignSpec) {
    let (new, old) = (campaign.expand(), oracle_expand(campaign));
    assert_eq!(new, old, "expansions disagree on {}", campaign.to_json());
    let specs = campaign.scenarios.iter().map(|t| &t.base);
    for spec in specs.chain(new.iter().flatten().map(|run| &run.spec)) {
        let preimage = serde_json::to_string(&spec.normalized()).expect("spec serializes");
        assert_eq!(spec.canonical_json(), preimage);
    }
}

proptest! {
    #[test]
    fn odometer_expansion_agrees_with_the_level_by_level_one(seed in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(seed);
        for _ in 0..8 {
            assert_agree(&campaign(&mut rng));
        }
    }
}

/// The generator is worth its cases: it makes runs, and each refusal.
#[test]
fn the_generator_reaches_every_outcome() {
    let mut rng = TestRng::seed_from_u64(49);
    // Runs expanded; campaigns refused for a duplicate label, an axis, a run.
    let mut tally = [0; 4];
    for _ in 0..512 {
        let campaign = campaign(&mut rng);
        assert_agree(&campaign);
        match campaign.expand() {
            Ok(runs) => tally[0] += runs.len(),
            Err(e) if e.starts_with("campaign: duplicate run label") => tally[1] += 1,
            Err(e) if e.starts_with("scenario #") => tally[2] += 1,
            Err(e) if e.starts_with("run `") => tally[3] += 1,
            Err(_) => {}
        }
    }
    assert!(
        tally[0] > 1_000 && tally.iter().all(|&n| n > 0),
        "{tally:?}"
    );
}
