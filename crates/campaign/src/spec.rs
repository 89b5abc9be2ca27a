//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] is the data form of everything the harness runners can
//! express: two-party shaped calls, §5 competition runs, and §6 multiparty
//! calls. Specs are plain JSON values — new workloads need a spec file, not
//! new Rust — and every spec has a *canonical* serialized form used both for
//! storage and for content-addressing cached results.

use serde::{json, DeError, Deserialize, Serialize, Value};
use vcabench_netsim::RateProfile;
use vcabench_vca::VcaKind;

/// Paper defaults for competition runs (§5: competitor enters at 30 s for
/// 120 s; the incumbent continues one more minute).
pub const COMPETITOR_START_SECS: f64 = 30.0;
/// Default competitor lifetime, seconds.
pub const COMPETITOR_DURATION_SECS: f64 = 120.0;
/// Default total competition run length, seconds.
pub const COMPETITION_TOTAL_SECS: f64 = 210.0;

/// Optional per-client model knobs the two-party runner applies to C1
/// before the call starts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientKnobs {
    /// Enable/disable the Teams §3.2 low-rate width-bug emulation.
    pub teams_width_bug: Option<bool>,
    /// Congestion-controller floor, Mbps (requires `max_rate_mbps` too).
    pub min_rate_mbps: Option<f64>,
    /// Congestion-controller ceiling, Mbps (requires `min_rate_mbps` too).
    pub max_rate_mbps: Option<f64>,
}

impl ClientKnobs {
    fn validate(&self) -> Result<(), String> {
        match (self.min_rate_mbps, self.max_rate_mbps) {
            (None, None) => Ok(()),
            (Some(min), Some(max)) if min > 0.0 && max >= min => Ok(()),
            (Some(_), None) | (None, Some(_)) => {
                Err("knobs: min_rate_mbps and max_rate_mbps must be set together".to_string())
            }
            (Some(min), Some(max)) => Err(format!("knobs: invalid rate bounds [{min}, {max}]")),
        }
    }
}

/// A two-party shaped call (§3–§4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TwoPartySpec {
    /// Client application.
    pub kind: VcaKind,
    /// C1 uplink shaping profile.
    pub up: RateProfile,
    /// C1 downlink shaping profile.
    pub down: RateProfile,
    /// Call length, seconds.
    pub duration_secs: f64,
    /// Simulation seed.
    pub seed: u64,
    /// Optional C1 model knobs.
    pub knobs: Option<ClientKnobs>,
}

/// Which application competes with the incumbent (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompetitorSpec {
    /// A second VCA call.
    Vca(VcaKind),
    /// Bulk TCP upload (iPerf3).
    IperfUp,
    /// Bulk TCP download (iPerf3 reverse mode).
    IperfDown,
    /// Netflix streaming.
    Netflix,
    /// YouTube streaming.
    Youtube,
}

impl CompetitorSpec {
    /// Short lowercase tag used in run labels.
    pub fn tag(&self) -> String {
        match self {
            CompetitorSpec::Vca(kind) => slug(kind.name()),
            CompetitorSpec::IperfUp => "iperf_up".to_string(),
            CompetitorSpec::IperfDown => "iperf_down".to_string(),
            CompetitorSpec::Netflix => "netflix".to_string(),
            CompetitorSpec::Youtube => "youtube".to_string(),
        }
    }
}

impl Serialize for CompetitorSpec {
    /// `{"Vca": "<kind>"}` or the unit variant name as a string.
    fn write_json(&self, out: &mut String) {
        match self {
            CompetitorSpec::Vca(kind) => json::Members(&[("Vca", kind)]).write_json(out),
            CompetitorSpec::IperfUp => "IperfUp".write_json(out),
            CompetitorSpec::IperfDown => "IperfDown".write_json(out),
            CompetitorSpec::Netflix => "Netflix".write_json(out),
            CompetitorSpec::Youtube => "Youtube".write_json(out),
        }
    }
}

impl Deserialize for CompetitorSpec {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        if let Some(s) = v.as_str() {
            return match s {
                "IperfUp" => Ok(CompetitorSpec::IperfUp),
                "IperfDown" => Ok(CompetitorSpec::IperfDown),
                "Netflix" => Ok(CompetitorSpec::Netflix),
                "Youtube" => Ok(CompetitorSpec::Youtube),
                other => Err(DeError::msg(format!(
                    "unknown competitor `{other}` (expected IperfUp, IperfDown, Netflix, \
                     Youtube, or {{\"Vca\": kind}})"
                ))),
            };
        }
        if let Some(kind) = v.get("Vca") {
            return VcaKind::from_json_value(kind)
                .map(CompetitorSpec::Vca)
                .map_err(|e| e.in_field("Vca"));
        }
        Err(DeError::expected("competitor", v))
    }
}

/// A §5 competition run on a symmetric bottleneck.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompetitionSpec {
    /// Incumbent application.
    pub incumbent: VcaKind,
    /// Competing application.
    pub competitor: CompetitorSpec,
    /// Symmetric bottleneck capacity, Mbps.
    pub capacity_mbps: f64,
    /// Competitor start time, seconds (default: the paper's 30 s).
    pub competitor_start_secs: Option<f64>,
    /// Competitor lifetime, seconds (default: 120 s).
    pub competitor_duration_secs: Option<f64>,
    /// Total run length, seconds (default: 210 s).
    pub total_secs: Option<f64>,
    /// Simulation seed.
    pub seed: u64,
}

impl CompetitionSpec {
    /// The paper's §5 procedure: no timing field set, so the competitor
    /// enters at 30 s for 120 s and the incumbent continues one more minute.
    pub fn paper(
        incumbent: VcaKind,
        competitor: CompetitorSpec,
        capacity_mbps: f64,
        seed: u64,
    ) -> Self {
        CompetitionSpec {
            incumbent,
            competitor,
            capacity_mbps,
            competitor_start_secs: None,
            competitor_duration_secs: None,
            total_secs: None,
            seed,
        }
    }

    /// `(competitor start, competitor lifetime, total)` in seconds, every
    /// absent field read as the paper's §5 procedure.
    pub fn timing_secs(&self) -> (f64, f64, f64) {
        (
            self.competitor_start_secs.unwrap_or(COMPETITOR_START_SECS),
            self.competitor_duration_secs
                .unwrap_or(COMPETITOR_DURATION_SECS),
            self.total_secs.unwrap_or(COMPETITION_TOTAL_SECS),
        )
    }
}

/// An n-party call (§6).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultipartySpec {
    /// Client application.
    pub kind: VcaKind,
    /// Number of participants.
    pub n: usize,
    /// Pin C1 on every other participant's screen (the Fig 15c modality).
    /// Default: false (all gallery).
    pub pin_c1: Option<bool>,
    /// Call length, seconds.
    pub duration_secs: f64,
    /// Simulation seed.
    pub seed: u64,
}

/// One concrete, runnable scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioSpec {
    /// Two-party shaped call.
    TwoParty(TwoPartySpec),
    /// Competition run.
    Competition(CompetitionSpec),
    /// Multiparty call.
    Multiparty(MultipartySpec),
}

impl ScenarioSpec {
    /// The `type` tag used in the JSON form.
    pub fn type_tag(&self) -> &'static str {
        match self {
            ScenarioSpec::TwoParty(_) => "two_party",
            ScenarioSpec::Competition(_) => "competition",
            ScenarioSpec::Multiparty(_) => "multiparty",
        }
    }

    /// The variant's spec, whose fields follow the tag.
    fn fields(&self) -> &dyn Serialize {
        match self {
            ScenarioSpec::TwoParty(s) => s,
            ScenarioSpec::Competition(s) => s,
            ScenarioSpec::Multiparty(s) => s,
        }
    }

    /// The scenario's seed.
    pub fn seed(&self) -> u64 {
        match self {
            ScenarioSpec::TwoParty(s) => s.seed,
            ScenarioSpec::Competition(s) => s.seed,
            ScenarioSpec::Multiparty(s) => s.seed,
        }
    }

    /// Set the scenario's seed.
    pub fn set_seed(&mut self, seed: u64) {
        match self {
            ScenarioSpec::TwoParty(s) => s.seed = seed,
            ScenarioSpec::Competition(s) => s.seed = seed,
            ScenarioSpec::Multiparty(s) => s.seed = seed,
        }
    }

    /// Check structural invariants (positive durations, sane knobs, …).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ScenarioSpec::TwoParty(s) => {
                if !(s.duration_secs > 0.0 && s.duration_secs.is_finite()) {
                    return Err(format!("two_party: invalid duration {}", s.duration_secs));
                }
                if let Some(knobs) = &s.knobs {
                    knobs.validate()?;
                }
                Ok(())
            }
            ScenarioSpec::Competition(s) => {
                if !(s.capacity_mbps > 0.0 && s.capacity_mbps.is_finite()) {
                    return Err(format!("competition: invalid capacity {}", s.capacity_mbps));
                }
                let (start, dur, total) = s.timing_secs();
                if start < 0.0 || dur <= 0.0 || total <= 0.0 || !total.is_finite() {
                    return Err("competition: negative, zero or unbounded timing".to_string());
                }
                if start + dur > total {
                    return Err(format!(
                        "competition: competitor window {start}+{dur}s exceeds total {total}s"
                    ));
                }
                Ok(())
            }
            ScenarioSpec::Multiparty(s) => {
                if s.n < 2 || s.n > 64 {
                    return Err(format!("multiparty: n={} out of range 2..=64", s.n));
                }
                if !(s.duration_secs > 0.0 && s.duration_secs.is_finite()) {
                    return Err(format!("multiparty: invalid duration {}", s.duration_secs));
                }
                Ok(())
            }
        }
    }

    /// The spec with every defaultable field made explicit, so two authorings
    /// of the same scenario share one canonical form (and one content hash).
    pub fn normalized(&self) -> ScenarioSpec {
        match self {
            ScenarioSpec::Competition(s) => {
                let (start, dur, total) = s.timing_secs();
                ScenarioSpec::Competition(CompetitionSpec {
                    competitor_start_secs: Some(start),
                    competitor_duration_secs: Some(dur),
                    total_secs: Some(total),
                    ..s.clone()
                })
            }
            ScenarioSpec::Multiparty(s) => {
                let mut s = s.clone();
                s.pin_c1 = Some(s.pin_c1.unwrap_or(false));
                ScenarioSpec::Multiparty(s)
            }
            ScenarioSpec::TwoParty(_) => self.clone(),
        }
    }

    /// Append the canonical compact JSON of the normalized spec (the
    /// content-hash preimage and the stored echo form) to `out`. A
    /// two-party spec has no default to fill and is written as it is; the
    /// others are normalized into a copy that owns no heap memory.
    pub(crate) fn write_canonical(&self, out: &mut String) {
        match self {
            ScenarioSpec::TwoParty(_) => self.write_json(out),
            ScenarioSpec::Competition(_) | ScenarioSpec::Multiparty(_) => {
                self.normalized().write_json(out)
            }
        }
    }
}

impl Serialize for ScenarioSpec {
    /// Internally tagged: the variant's fields plus a leading `"type"` tag.
    fn write_json(&self, out: &mut String) {
        json::write_tagged(out, &[("type", &self.type_tag())], self.fields());
    }
}

impl Deserialize for ScenarioSpec {
    fn from_json_value(v: &Value) -> Result<Self, DeError> {
        let tag = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| DeError::msg("scenario: missing `type` tag"))?;
        match tag {
            "two_party" => TwoPartySpec::from_json_value(v).map(ScenarioSpec::TwoParty),
            "competition" => CompetitionSpec::from_json_value(v).map(ScenarioSpec::Competition),
            "multiparty" => MultipartySpec::from_json_value(v).map(ScenarioSpec::Multiparty),
            other => Err(DeError::msg(format!(
                "scenario: unknown type `{other}` (expected two_party, competition, multiparty)"
            ))),
        }
    }
}

/// Lowercase a name and flatten every non-alphanumeric run to `_`
/// (`"Zoom-Chrome"` → `"zoom_chrome"`, `"0.5"` → `"0_5"`).
pub fn slug(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut last_sep = true;
    for c in text.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
            last_sep = false;
        } else if !last_sep {
            out.push('_');
            last_sep = true;
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

/// Slug of a float axis value (`0.5` → `"0_5"`, `10.0` → `"10"`).
pub fn float_slug(x: f64) -> String {
    slug(&format!("{x}"))
}

#[cfg(test)]
impl ScenarioSpec {
    /// [`ScenarioSpec::write_canonical`] into a string of its own.
    pub(crate) fn canonical_json(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcabench_simcore::SimTime;

    fn sample_two_party() -> ScenarioSpec {
        ScenarioSpec::TwoParty(TwoPartySpec {
            kind: VcaKind::Zoom,
            up: RateProfile::constant_mbps(1.0).step(SimTime::from_secs(60), 0.25e6),
            down: RateProfile::constant_mbps(1000.0),
            duration_secs: 150.0,
            seed: 7,
            knobs: Some(ClientKnobs {
                teams_width_bug: None,
                min_rate_mbps: Some(0.1),
                max_rate_mbps: Some(2.0),
            }),
        })
    }

    #[test]
    fn round_trip_all_variants() {
        let specs = [
            sample_two_party(),
            ScenarioSpec::Competition(CompetitionSpec {
                incumbent: VcaKind::Meet,
                competitor: CompetitorSpec::Vca(VcaKind::Zoom),
                capacity_mbps: 0.5,
                competitor_start_secs: None,
                competitor_duration_secs: None,
                total_secs: None,
                seed: 81,
            }),
            ScenarioSpec::Competition(CompetitionSpec {
                incumbent: VcaKind::Teams,
                competitor: CompetitorSpec::IperfDown,
                capacity_mbps: 2.0,
                competitor_start_secs: Some(10.0),
                competitor_duration_secs: Some(40.0),
                total_secs: Some(60.0),
                seed: 3,
            }),
            ScenarioSpec::Multiparty(MultipartySpec {
                kind: VcaKind::Zoom,
                n: 5,
                pin_c1: Some(true),
                duration_secs: 40.0,
                seed: 5,
            }),
        ];
        for spec in specs {
            spec.validate().unwrap();
            let text = serde_json::to_string(&spec).unwrap();
            let back: ScenarioSpec = serde_json::from_str(&text).unwrap();
            assert_eq!(spec, back, "round trip of {text}");
            // Canonical form is a fixed point.
            let canon = spec.canonical_json();
            let canon_back: ScenarioSpec = serde_json::from_str(&canon).unwrap();
            assert_eq!(canon_back.canonical_json(), canon);
        }
    }

    #[test]
    fn normalization_fills_defaults() {
        let spec = ScenarioSpec::Competition(CompetitionSpec {
            incumbent: VcaKind::Zoom,
            competitor: CompetitorSpec::Netflix,
            capacity_mbps: 3.0,
            competitor_start_secs: None,
            competitor_duration_secs: None,
            total_secs: None,
            seed: 1,
        });
        let explicit = ScenarioSpec::Competition(CompetitionSpec {
            incumbent: VcaKind::Zoom,
            competitor: CompetitorSpec::Netflix,
            capacity_mbps: 3.0,
            competitor_start_secs: Some(30.0),
            competitor_duration_secs: Some(120.0),
            total_secs: Some(210.0),
            seed: 1,
        });
        assert_eq!(spec.canonical_json(), explicit.canonical_json());
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut bad = match sample_two_party() {
            ScenarioSpec::TwoParty(s) => s,
            _ => unreachable!(),
        };
        bad.duration_secs = 0.0;
        assert!(ScenarioSpec::TwoParty(bad.clone()).validate().is_err());
        bad.duration_secs = 30.0;
        bad.knobs = Some(ClientKnobs {
            teams_width_bug: None,
            min_rate_mbps: Some(1.0),
            max_rate_mbps: None,
        });
        assert!(ScenarioSpec::TwoParty(bad).validate().is_err());
        let comp = ScenarioSpec::Competition(CompetitionSpec {
            incumbent: VcaKind::Zoom,
            competitor: CompetitorSpec::IperfUp,
            capacity_mbps: 1.0,
            competitor_start_secs: Some(100.0),
            competitor_duration_secs: Some(200.0),
            total_secs: Some(210.0),
            seed: 0,
        });
        assert!(comp.validate().is_err());
        let multi = ScenarioSpec::Multiparty(MultipartySpec {
            kind: VcaKind::Meet,
            n: 1,
            pin_c1: None,
            duration_secs: 30.0,
            seed: 0,
        });
        assert!(multi.validate().is_err());
    }

    #[test]
    fn slugs() {
        assert_eq!(slug("Zoom-Chrome"), "zoom_chrome");
        assert_eq!(slug("fig9a Zoom-Zoom @0.5"), "fig9a_zoom_zoom_0_5");
        assert_eq!(float_slug(0.5), "0_5");
        assert_eq!(float_slug(10.0), "10");
        assert_eq!(float_slug(1.25), "1_25");
    }
}
