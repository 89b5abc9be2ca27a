//! **Figure 15** — call modalities: participants and viewing mode (§6).
//!
//! * (a) C1's downlink vs. number of participants (gallery mode);
//! * (b) C1's uplink vs. participants — the layout cliffs: Zoom falls
//!   0.8→0.4 Mbps at n=5, Meet 1→0.2 at n=7, Teams flat (fixed 2×2 layout);
//! * (c) C1's uplink when every other participant pins C1 (speaker mode):
//!   Zoom and Meet hold ~1 Mbps regardless of call size; Teams grows from
//!   ~1.25 Mbps (n=3) to ~2.9 Mbps (n=8).

use serde::Serialize;
use vcabench_campaign::MultipartySpec;
use vcabench_simcore::SimDuration;
use vcabench_stats::ci90;
use vcabench_vca::VcaKind;

use crate::experiments::{grid, sweep};
use crate::render::axis;
use crate::run;

/// Parameters of the modality study.
#[derive(Debug, Clone)]
pub struct Fig15Config {
    /// Call sizes to sweep (paper: 2..=8).
    pub sizes: Vec<usize>,
    /// Call length (paper: 2 minutes).
    pub call: SimDuration,
    /// Repetitions (paper: 5).
    pub reps: u64,
    /// Base seed.
    pub seed: u64,
}

impl Default for Fig15Config {
    fn default() -> Self {
        Fig15Config {
            sizes: (2..=8).collect(),
            call: SimDuration::from_secs(120),
            reps: 5,
            seed: 151,
        }
    }
}

impl Fig15Config {
    /// Reduced preset.
    pub fn quick() -> Self {
        Fig15Config {
            sizes: vec![2, 4, 5, 6, 7, 8],
            call: SimDuration::from_secs(50),
            reps: 1,
            seed: 151,
        }
    }
}

/// One (vca, n) utilization point.
#[derive(Debug, Clone, Serialize)]
pub struct ModalityPoint {
    /// VCA name.
    pub vca: String,
    /// Participants.
    pub n: usize,
    /// C1 downlink, Mbps (mean over reps).
    pub down_mbps: f64,
    /// C1 uplink, Mbps.
    pub up_mbps: f64,
    /// 90% CI half-width on the uplink.
    pub up_ci: f64,
}

/// Full Fig 15 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig15Result {
    /// Panels (a)+(b): gallery mode sweep.
    pub gallery: Vec<ModalityPoint>,
    /// Panel (c): speaker mode (C1 pinned by everyone), uplink of C1.
    pub speaker: Vec<ModalityPoint>,
}

fn find(points: &[ModalityPoint], vca: &str, n: usize) -> Option<ModalityPoint> {
    points.iter().find(|p| p.vca == vca && p.n == n).cloned()
}

impl Fig15Result {
    /// Gallery point lookup.
    pub fn gallery_at(&self, vca: &str, n: usize) -> Option<ModalityPoint> {
        find(&self.gallery, vca, n)
    }
    /// Speaker point lookup.
    pub fn speaker_at(&self, vca: &str, n: usize) -> Option<ModalityPoint> {
        find(&self.speaker, vca, n)
    }
}

/// One viewing mode's sweep over kinds × call sizes.
fn panel(cfg: &Fig15Config, pin_c1: bool, jobs: usize) -> Vec<ModalityPoint> {
    let mut cells = grid(&VcaKind::NATIVE, &cfg.sizes);
    // Speaker mode needs a third party to matter.
    cells.retain(|&(_, n)| !pin_c1 || n >= 3);
    let rates = sweep(
        jobs,
        &cells,
        cfg.reps,
        run::multiparty,
        |&(kind, n), rep| MultipartySpec {
            kind,
            n,
            pin_c1: Some(pin_c1),
            duration_secs: cfg.call.as_secs_f64(),
            seed: cfg.seed + rep,
        },
        |_, _, out| (out.c1_down_mbps, out.c1_up_mbps),
    );
    let points = rates.into_iter().map(|(&(kind, n), rates)| {
        let (downs, ups): (Vec<f64>, Vec<f64>) = rates.into_iter().unzip();
        let u = ci90(&ups);
        ModalityPoint {
            vca: kind.name().to_string(),
            n,
            down_mbps: vcabench_stats::mean(&downs),
            up_mbps: u.mean,
            up_ci: u.hi - u.mean,
        }
    });
    points.collect()
}

/// Run all panels on `jobs` workers.
pub fn run(cfg: &Fig15Config, jobs: usize) -> Fig15Result {
    Fig15Result {
        gallery: panel(cfg, false, jobs),
        speaker: panel(cfg, true, jobs),
    }
}

/// Render.
pub fn print(result: &Fig15Result) {
    println!("Fig 15a/b: gallery-mode utilization vs participants (C1 down / C1 up, Mbps)");
    let ns = axis(result.gallery.iter().map(|p| p.n));
    print!("{:>8}", "VCA");
    for n in &ns {
        print!(" {:>11}", format!("n={n}"));
    }
    println!();
    for vca in ["Meet", "Teams", "Zoom"] {
        print!("{vca:>8}");
        for &n in &ns {
            if let Some(p) = result.gallery_at(vca, n) {
                print!(" {:>5.1}/{:<5.1}", p.down_mbps, p.up_mbps);
            } else {
                print!(" {:>11}", "-");
            }
        }
        println!();
    }
    println!("Fig 15c: uplink of the pinned participant (speaker mode, Mbps)");
    print!("{:>8}", "VCA");
    for n in &ns {
        if *n >= 3 {
            print!(" {:>7}", format!("n={n}"));
        }
    }
    println!();
    for vca in ["Meet", "Teams", "Zoom"] {
        print!("{vca:>8}");
        for &n in &ns {
            if n < 3 {
                continue;
            }
            if let Some(p) = result.speaker_at(vca, n) {
                print!(" {:>7.2}", p.up_mbps);
            } else {
                print!(" {:>7}", "-");
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gallery_cliffs() {
        let r = run(&Fig15Config::quick(), crate::experiments::test_jobs());
        // Zoom's uplink cliff at n=5.
        let z4 = r.gallery_at("Zoom", 4).unwrap().up_mbps;
        let z5 = r.gallery_at("Zoom", 5).unwrap().up_mbps;
        assert!(z5 < z4 * 0.8, "Zoom cliff at 5: {z4} -> {z5}");
        // Meet's uplink cliff at n=7.
        let m6 = r.gallery_at("Meet", 6).unwrap().up_mbps;
        let m7 = r.gallery_at("Meet", 7).unwrap().up_mbps;
        assert!(m7 < m6 * 0.5, "Meet cliff at 7: {m6} -> {m7}");
        // Teams' uplink is flat.
        let t2 = r.gallery_at("Teams", 2).unwrap().up_mbps;
        let t8 = r.gallery_at("Teams", 8).unwrap().up_mbps;
        assert!(
            (t8 - t2).abs() < 0.35 * t2,
            "Teams uplink flat: {t2} vs {t8}"
        );
        // Teams' downlink rises to n=5 then drops.
        let t5 = r.gallery_at("Teams", 5).unwrap().down_mbps;
        let t6 = r.gallery_at("Teams", 6).unwrap().down_mbps;
        assert!(t5 > t6, "Teams downlink peak at 5: {t5} vs {t6}");
    }

    #[test]
    fn speaker_mode_shapes() {
        let r = run(&Fig15Config::quick(), crate::experiments::test_jobs());
        // Zoom and Meet pin at ~1 Mbps regardless of call size.
        for vca in ["Zoom", "Meet"] {
            let at4 = r.speaker_at(vca, 4).unwrap().up_mbps;
            let at8 = r.speaker_at(vca, 8).unwrap().up_mbps;
            assert!((0.7..=1.5).contains(&at4), "{vca} pinned ~1 Mbps: {at4}");
            assert!(
                (at8 - at4).abs() < 0.3,
                "{vca} pinned uplink flat in call size: {at4} vs {at8}"
            );
        }
        // Teams grows with the call size.
        let t4 = r.speaker_at("Teams", 4).unwrap().up_mbps;
        let t8 = r.speaker_at("Teams", 8).unwrap().up_mbps;
        assert!(t8 > t4 + 0.5, "Teams pinned uplink grows: {t4} -> {t8}");
        // Pinning raises the sender's uplink vs gallery at the same n.
        let gallery = r.gallery_at("Zoom", 6).unwrap().up_mbps;
        let pinned = r.speaker_at("Zoom", 6).unwrap().up_mbps;
        assert!(
            pinned > gallery,
            "pinning raises uplink: {gallery} -> {pinned}"
        );
    }
}
