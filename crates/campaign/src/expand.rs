//! Campaign expansion: a compact declarative sweep → a flat, ordered run list.
//!
//! A [`CampaignSpec`] holds one or more [`ScenarioTemplate`]s, each a base
//! [`ScenarioSpec`] plus optional [`Axes`]. Expansion takes the Cartesian
//! product of the axes in a fixed nesting order (kinds → competitors →
//! capacities → uplinks → downlinks → seeds) so a campaign always produces
//! the same runs in the same order — the determinism contract the parallel
//! executor and the result store both build on.

use crate::spec::{float_slug, slug, CompetitorSpec, ScenarioSpec};
use serde::{de_field, json, DeError, Deserialize, Serialize, Value};
use std::fmt::Write as _;
use vcabench_netsim::RateProfile;
use vcabench_vca::VcaKind;

/// Seed sweep: an explicit list or a contiguous range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedAxis {
    /// Explicit seeds, run in the given order.
    List(Vec<u64>),
    /// `base, base+1, …, base+count-1`.
    Range {
        /// First seed.
        base: u64,
        /// Number of seeds.
        count: u64,
    },
}

/// Most seeds one [`SeedAxis::Range`] may name: far beyond any campaign
/// that could run, and small enough to materialise.
const MAX_SEED_RANGE: u64 = 1 << 20;

impl SeedAxis {
    /// The seeds, in sweep order.
    pub fn seeds(&self) -> Vec<u64> {
        match self {
            SeedAxis::List(seeds) => seeds.clone(),
            SeedAxis::Range { base, count } => (0..*count).map(|i| base + i).collect(),
        }
    }
}

impl Serialize for SeedAxis {
    /// A bare array (`[41, 42]`) or `{"base": 41, "count": 4}`.
    fn write_json(&self, out: &mut String) {
        match self {
            SeedAxis::List(seeds) => seeds.write_json(out),
            SeedAxis::Range { base, count } => {
                json::Members(&[("base", base), ("count", count)]).write_json(out)
            }
        }
    }
}

impl Deserialize for SeedAxis {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(_) => Vec::<u64>::from_json_value(v).map(SeedAxis::List),
            Value::Object(obj) => Ok(SeedAxis::Range {
                base: de_field(obj, "base")?,
                count: de_field(obj, "count")?,
            }),
            other => Err(DeError::expected("seed list or {base, count} range", other)),
        }
    }
}

/// Sweep axes applied to a template's base scenario. Every axis is optional;
/// an omitted axis leaves the base value untouched.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Axes {
    /// Sweep the client kind (any scenario type).
    pub kinds: Option<Vec<VcaKind>>,
    /// Sweep the C1 uplink as constant-rate profiles, Mbps (two-party only).
    pub up_mbps: Option<Vec<f64>>,
    /// Sweep the C1 downlink as constant-rate profiles, Mbps (two-party only).
    pub down_mbps: Option<Vec<f64>>,
    /// Sweep the bottleneck capacity, Mbps (competition only).
    pub capacity_mbps: Option<Vec<f64>>,
    /// Sweep the competitor (competition only).
    pub competitors: Option<Vec<CompetitorSpec>>,
    /// Sweep the seed (any scenario type).
    pub seeds: Option<SeedAxis>,
}

impl Axes {
    const EMPTY: Axes = Axes {
        kinds: None,
        up_mbps: None,
        down_mbps: None,
        capacity_mbps: None,
        competitors: None,
        seeds: None,
    };

    fn check_compatible(&self, base: &ScenarioSpec) -> Result<(), String> {
        let two_party_only = [
            ("up_mbps", self.up_mbps.is_some()),
            ("down_mbps", self.down_mbps.is_some()),
        ];
        let competition_only = [
            ("capacity_mbps", self.capacity_mbps.is_some()),
            ("competitors", self.competitors.is_some()),
        ];
        for (name, present) in two_party_only {
            if present && !matches!(base, ScenarioSpec::TwoParty(_)) {
                return Err(format!(
                    "axis `{name}` applies only to two_party scenarios (base is {})",
                    base.type_tag()
                ));
            }
        }
        for (name, present) in competition_only {
            if present && !matches!(base, ScenarioSpec::Competition(_)) {
                return Err(format!(
                    "axis `{name}` applies only to competition scenarios (base is {})",
                    base.type_tag()
                ));
            }
        }
        // A range is materialised: bound it first.
        if let Some(SeedAxis::Range { base, count }) = self.seeds {
            if count > MAX_SEED_RANGE || base.checked_add(count).is_none() {
                return Err(format!(
                    "axis `seeds`: range of {count} from {base} (at most {MAX_SEED_RANGE}, below 2^64)"
                ));
            }
        }
        for (name, empty) in [
            ("kinds", self.kinds.as_deref() == Some(&[])),
            ("up_mbps", self.up_mbps.as_deref() == Some(&[])),
            ("down_mbps", self.down_mbps.as_deref() == Some(&[])),
            ("capacity_mbps", self.capacity_mbps.as_deref() == Some(&[])),
            ("competitors", self.competitors.as_deref() == Some(&[])),
            (
                "seeds",
                self.seeds.as_ref().is_some_and(|s| s.seeds().is_empty()),
            ),
        ] {
            if empty {
                return Err(format!("axis `{name}` is empty"));
            }
        }
        // A rate the expansion makes a profile of, not merely stores.
        for (name, rates) in [("up_mbps", &self.up_mbps), ("down_mbps", &self.down_mbps)] {
            for &mbps in rates.iter().flatten() {
                if !(mbps > 0.0 && mbps.is_finite()) {
                    return Err(format!("axis `{name}`: rate must be positive: {mbps}"));
                }
            }
        }
        Ok(())
    }
}

/// A base scenario plus sweep axes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioTemplate {
    /// Label prefix for expanded runs (default: the campaign name).
    pub label: Option<String>,
    /// The scenario every expanded run starts from.
    pub base: ScenarioSpec,
    /// Sweep axes; omit for a single run of `base`.
    pub axes: Option<Axes>,
}

/// A named set of scenario templates — one experiment campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign name (also the result-store file stem).
    pub name: String,
    /// Templates, expanded in order.
    pub scenarios: Vec<ScenarioTemplate>,
}

/// One concrete run produced by expansion.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpandedRun {
    /// Position in the campaign's deterministic run order.
    pub index: usize,
    /// Human-readable snake_case label (unique within the campaign).
    pub label: String,
    /// The fully concrete scenario.
    pub spec: ScenarioSpec,
}

impl CampaignSpec {
    /// Parse a campaign from JSON text.
    pub fn from_json(text: &str) -> Result<CampaignSpec, String> {
        serde_json::from_str(text).map_err(|e| format!("campaign spec: {e}"))
    }

    /// Serialize to compact JSON (the spec-file format [`from_json`] reads).
    ///
    /// [`from_json`]: CampaignSpec::from_json
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("campaign serializes")
    }

    /// Expand every template into the flat, ordered, validated run list.
    pub fn expand(&self) -> Result<Vec<ExpandedRun>, String> {
        if self.name.trim().is_empty() {
            return Err("campaign: empty name".to_string());
        }
        if self.scenarios.is_empty() {
            return Err("campaign: no scenarios".to_string());
        }
        let mut runs = Vec::new();
        for (ti, template) in self.scenarios.iter().enumerate() {
            let axes = template.axes.as_ref().unwrap_or(&Axes::EMPTY);
            axes.check_compatible(&template.base)
                .map_err(|e| format!("scenario #{ti}: {e}"))?;
            let prefix = template.label.as_deref().unwrap_or(&self.name);
            expand_template(&template.base, axes, prefix, &mut runs);
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
}

/// One value of a non-seed axis: the field it sets.
#[derive(Clone, Copy)]
enum Setting {
    Kind(VcaKind),
    Competitor(CompetitorSpec),
    Capacity(f64),
    Up(f64),
    Down(f64),
}

impl Setting {
    /// Set the field in `spec`; a pairing `check_compatible` refuses sets
    /// nothing.
    fn apply(self, spec: &mut ScenarioSpec) {
        match (self, spec) {
            (Setting::Kind(kind), ScenarioSpec::TwoParty(s)) => s.kind = kind,
            (Setting::Kind(kind), ScenarioSpec::Competition(s)) => s.incumbent = kind,
            (Setting::Kind(kind), ScenarioSpec::Multiparty(s)) => s.kind = kind,
            (Setting::Competitor(competitor), ScenarioSpec::Competition(s)) => {
                s.competitor = competitor
            }
            (Setting::Capacity(cap), ScenarioSpec::Competition(s)) => s.capacity_mbps = cap,
            (Setting::Up(mbps), ScenarioSpec::TwoParty(s)) => {
                s.up = RateProfile::constant_mbps(mbps)
            }
            (Setting::Down(mbps), ScenarioSpec::TwoParty(s)) => {
                s.down = RateProfile::constant_mbps(mbps)
            }
            _ => {}
        }
    }
}

/// The template's present non-seed axes in nesting order, each value with
/// its label suffix, slugged once.
fn levels(axes: &Axes) -> Vec<Vec<(String, Setting)>> {
    fn level<A: Copy>(
        values: &Option<Vec<A>>,
        suffix: impl Fn(A) -> String,
        setting: impl Fn(A) -> Setting,
    ) -> Option<Vec<(String, Setting)>> {
        let values = values.as_deref()?;
        Some(values.iter().map(|&v| (suffix(v), setting(v))).collect())
    }
    [
        level(&axes.kinds, |k| slug(k.name()), Setting::Kind),
        level(
            &axes.competitors,
            |c| format!("vs_{}", c.tag()),
            Setting::Competitor,
        ),
        level(&axes.capacity_mbps, float_slug, Setting::Capacity),
        level(
            &axes.up_mbps,
            |x| format!("up{}", float_slug(x)),
            Setting::Up,
        ),
        level(
            &axes.down_mbps,
            |x| format!("down{}", float_slug(x)),
            Setting::Down,
        ),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Cartesian expansion in the fixed nesting order
/// kinds → competitors → capacities → uplinks → downlinks → seeds, walked
/// as an odometer: one working spec and label change only where a digit
/// turns, and each run takes one clone of each.
fn expand_template(base: &ScenarioSpec, axes: &Axes, prefix: &str, out: &mut Vec<ExpandedRun>) {
    let levels = levels(axes);
    let seeds = axes.seeds.as_ref().map(SeedAxis::seeds);
    let mut spec = base.clone();
    let mut label = slug(prefix);
    let mut digits = vec![0; levels.len()];
    // `marks[j]`: the label's length before level `j`'s suffix.
    let mut marks = vec![label.len(); levels.len()];
    // Levels from `turned` on take their current value.
    let mut turned = 0;
    loop {
        if let Some(&mark) = marks.get(turned) {
            label.truncate(mark);
        }
        for j in turned..levels.len() {
            let (suffix, setting) = &levels[j][digits[j]];
            marks[j] = label.len();
            label.push('_');
            label.push_str(suffix);
            setting.apply(&mut spec);
        }
        let mut push = |label: &String, spec: &ScenarioSpec| {
            out.push(ExpandedRun {
                index: out.len(),
                label: label.clone(),
                spec: spec.clone(),
            })
        };
        match &seeds {
            None => push(&label, &spec),
            Some(seeds) => {
                let mark = label.len();
                for &seed in seeds {
                    write!(label, "_s{seed}").expect("writing to a String cannot fail");
                    spec.set_seed(seed);
                    push(&label, &spec);
                    label.truncate(mark);
                }
            }
        }
        // Turn the last digit that has a value left; the ones after it
        // start over.
        let Some(i) = (0..levels.len()).rfind(|&i| digits[i] + 1 < levels[i].len()) else {
            return;
        };
        digits[i] += 1;
        digits[i + 1..].fill(0);
        turned = i;
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TwoPartySpec;

    fn two_party_base() -> ScenarioSpec {
        ScenarioSpec::TwoParty(TwoPartySpec {
            kind: VcaKind::Zoom,
            up: RateProfile::constant_mbps(1000.0),
            down: RateProfile::constant_mbps(1000.0),
            duration_secs: 60.0,
            seed: 1,
            knobs: None,
        })
    }

    #[test]
    fn cartesian_order_is_kinds_then_rates_then_seeds() {
        let campaign = CampaignSpec {
            name: "sweep".to_string(),
            scenarios: vec![ScenarioTemplate {
                label: None,
                base: two_party_base(),
                axes: Some(Axes {
                    kinds: Some(vec![VcaKind::Meet, VcaKind::Zoom]),
                    up_mbps: Some(vec![0.5, 1.0]),
                    down_mbps: None,
                    capacity_mbps: None,
                    competitors: None,
                    seeds: Some(SeedAxis::Range { base: 10, count: 2 }),
                }),
            }],
        };
        let runs = campaign.expand().unwrap();
        assert_eq!(runs.len(), 8);
        assert_eq!(runs[0].label, "sweep_meet_up0_5_s10");
        assert_eq!(runs[1].label, "sweep_meet_up0_5_s11");
        assert_eq!(runs[2].label, "sweep_meet_up1_s10");
        assert_eq!(runs[4].label, "sweep_zoom_up0_5_s10");
        assert_eq!(runs[7].label, "sweep_zoom_up1_s11");
        assert!(runs.iter().enumerate().all(|(i, r)| r.index == i));
        match &runs[4].spec {
            ScenarioSpec::TwoParty(s) => {
                assert_eq!(s.kind, VcaKind::Zoom);
                assert_eq!(s.seed, 10);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn axis_type_mismatch_is_rejected() {
        let campaign = CampaignSpec {
            name: "bad".to_string(),
            scenarios: vec![ScenarioTemplate {
                label: None,
                base: two_party_base(),
                axes: Some(Axes {
                    capacity_mbps: Some(vec![1.0]),
                    ..Axes::EMPTY
                }),
            }],
        };
        let err = campaign.expand().unwrap_err();
        assert!(err.contains("capacity_mbps"), "{err}");
    }

    #[test]
    fn duplicate_labels_are_rejected() {
        let campaign = CampaignSpec {
            name: "dup".to_string(),
            scenarios: vec![
                ScenarioTemplate {
                    label: Some("same".to_string()),
                    base: two_party_base(),
                    axes: None,
                },
                ScenarioTemplate {
                    label: Some("same".to_string()),
                    base: two_party_base(),
                    axes: None,
                },
            ],
        };
        let err = campaign.expand().unwrap_err();
        assert!(err.contains("duplicate run label"), "{err}");
    }

    #[test]
    fn campaign_round_trip_preserves_expansion() {
        let campaign = CampaignSpec {
            name: "rt".to_string(),
            scenarios: vec![ScenarioTemplate {
                label: Some("grid".to_string()),
                base: two_party_base(),
                axes: Some(Axes {
                    kinds: Some(vec![VcaKind::Teams]),
                    up_mbps: Some(vec![0.25, 0.5]),
                    down_mbps: None,
                    capacity_mbps: None,
                    competitors: None,
                    seeds: Some(SeedAxis::List(vec![3, 5])),
                }),
            }],
        };
        let text = serde_json::to_string(&campaign).unwrap();
        let back = CampaignSpec::from_json(&text).unwrap();
        assert_eq!(campaign, back);
        assert_eq!(campaign.expand().unwrap(), back.expand().unwrap());
    }

    #[test]
    fn a_deeply_nested_spec_is_an_error_not_a_stack_overflow() {
        // `repro campaign deep.json` with this file used to abort the
        // process ("thread 'main' has overflowed its stack").
        for deep in [
            "[".repeat(200_000),
            format!("{{\"name\":\"x\",\"scenarios\":{}", "[".repeat(200_000)),
        ] {
            let err = CampaignSpec::from_json(&deep).unwrap_err();
            assert!(
                err.starts_with("campaign spec: ") && err.contains("nesting too deep"),
                "{err}"
            );
        }
    }
}
