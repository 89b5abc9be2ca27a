//! Run outcomes: the serializable summary a runner returns per scenario.
//!
//! The campaign crate never runs simulations itself — the harness supplies a
//! runner callback mapping [`ScenarioSpec`](crate::ScenarioSpec) to a
//! [`ScenarioOutcome`]. Outcomes are pure data so they can be cached in the
//! result store and replayed without recomputation.

use serde::{json, Serialize};

/// One `(t_secs, mbps)` throughput sample.
pub type Sample = (f64, f64);

/// Summary of a two-party shaped call.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TwoPartyRecord {
    /// C1 uplink send-rate series.
    pub up_series: Vec<Sample>,
    /// C1 downlink receive-rate series.
    pub down_series: Vec<Sample>,
    /// C1 congestion-controller target series.
    pub target_series: Vec<Sample>,
    /// Median uplink utilization over the settled window, Mbps.
    pub steady_up_mbps: f64,
    /// Median downlink utilization over the settled window, Mbps.
    pub steady_down_mbps: f64,
    /// Time to recover to the nominal rate after a disruption, seconds
    /// (absent when no recovery was observed or none was provoked).
    pub ttr_secs: Option<f64>,
    /// Nominal (pre-disruption) rate used for the TTR threshold, Mbps.
    pub nominal_mbps: Option<f64>,
    /// FIR/PLI repair requests received by C1's sender.
    pub firs_received: u64,
    /// Total rendered freeze time at C1, seconds.
    pub freeze_secs: f64,
    /// Frames decoded at C1.
    pub frames_decoded: u64,
}

/// Summary of a §5 competition run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CompetitionRecord {
    /// Incumbent uplink series.
    pub inc_up: Vec<Sample>,
    /// Incumbent downlink series.
    pub inc_down: Vec<Sample>,
    /// Competitor uplink series.
    pub comp_up: Vec<Sample>,
    /// Competitor downlink series.
    pub comp_down: Vec<Sample>,
    /// Incumbent share of uplink capacity while both compete (0..=1).
    pub up_share: f64,
    /// Incumbent share of downlink capacity while both compete (0..=1).
    pub down_share: f64,
    /// Parallel connections a Netflix competitor opened (0 otherwise).
    pub netflix_conns: usize,
}

/// Summary of an n-party call.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MultipartyRecord {
    /// C1 steady uplink, Mbps.
    pub c1_up_mbps: f64,
    /// C1 steady downlink, Mbps.
    pub c1_down_mbps: f64,
}

/// The outcome of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOutcome {
    /// Two-party result.
    TwoParty(TwoPartyRecord),
    /// Competition result.
    Competition(CompetitionRecord),
    /// Multiparty result.
    Multiparty(MultipartyRecord),
}

impl ScenarioOutcome {
    /// The `type` tag used in the JSON form.
    fn type_tag(&self) -> &'static str {
        match self {
            ScenarioOutcome::TwoParty(_) => "two_party",
            ScenarioOutcome::Competition(_) => "competition",
            ScenarioOutcome::Multiparty(_) => "multiparty",
        }
    }

    /// The variant's record, whose fields follow the tag.
    fn fields(&self) -> &dyn Serialize {
        match self {
            ScenarioOutcome::TwoParty(r) => r,
            ScenarioOutcome::Competition(r) => r,
            ScenarioOutcome::Multiparty(r) => r,
        }
    }
}

impl Serialize for ScenarioOutcome {
    /// Internally tagged with `"type"`, mirroring `ScenarioSpec`.
    fn write_json(&self, out: &mut String) {
        json::write_tagged(out, &[("type", &self.type_tag())], self.fields());
    }
}
