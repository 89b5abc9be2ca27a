//! Home-network competition: the §5 story on one shared access link.
//!
//! A work call is running; someone else in the household starts a large
//! upload (iPerf3-like), a Netflix stream, or a second video call. Who
//! wins, and by how much?
//!
//! ```text
//! cargo run --release --example home_competition
//! ```

use vcabench::prelude::*;

fn share(a: f64, b: f64) -> f64 {
    if a + b == 0.0 {
        0.0
    } else {
        a / (a + b)
    }
}

fn main() {
    println!("Shared 2 Mbps home link: an ongoing call vs a second application\n");
    println!(
        "{:<8} {:<14} {:>12} {:>12} {:>8}",
        "call", "competitor", "call Mbps", "comp Mbps", "share"
    );
    for incumbent in [VcaKind::Meet, VcaKind::Teams, VcaKind::Zoom] {
        for (competitor, label) in [
            (CompetitorSpec::IperfDown, "download"),
            (CompetitorSpec::Netflix, "netflix"),
            (CompetitorSpec::Youtube, "youtube"),
            (CompetitorSpec::Vca(VcaKind::Zoom), "zoom call"),
        ] {
            // The paper's procedure: the competitor runs from 30 s to 150 s.
            let spec = CompetitionSpec::paper(incumbent, competitor, 2.0, 5);
            let out = run::competition(&spec, &Telemetry::disabled()).0;
            let from = SimTime::from_secs(60);
            let to = SimTime::from_secs(150);
            let call_rate = TwoPartyOutcome::rate_between(&out.inc_down, from, to);
            let comp_rate = TwoPartyOutcome::rate_between(&out.comp_down, from, to);
            println!(
                "{:<8} {:<14} {:>12.2} {:>12.2} {:>7.0}%",
                incumbent.name(),
                label,
                call_rate,
                comp_rate,
                100.0 * share(call_rate, comp_rate)
            );
        }
    }
    println!("\n(downlink direction; competitor runs from t=30 s to t=150 s)");
    println!("Shapes from the paper: Teams is passive and cedes the link to TCP-like");
    println!("traffic; Zoom holds its nominal rate against everything; Meet sits");
    println!("in between. A 25/3 'broadband' link is not generous once two of");
    println!("these run side by side.");
}
