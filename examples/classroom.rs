//! Classroom scenario: the §6 modality study on a realistic workload.
//!
//! A remote class: one teacher and a growing number of students. Everyone
//! starts in gallery view; then the students pin the teacher (speaker mode).
//! The question city officials asked the authors — "how much uplink does a
//! household need for school?" — comes down to exactly these numbers.
//!
//! ```text
//! cargo run --release --example classroom
//! ```

use vcabench::prelude::*;

fn main() {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("Remote-classroom bandwidth study (teacher = client 0)\n");
    for kind in [VcaKind::Meet, VcaKind::Teams, VcaKind::Zoom] {
        println!("{} classroom:", kind.name());
        println!(
            "{:>9} {:>16} {:>16} {:>18}",
            "students", "teacher up", "teacher down", "teacher up (pinned)"
        );
        // Every class size in gallery mode, then with the students pinning
        // the teacher: each a grid, run on every core.
        let class_sizes = [1usize, 3, 5, 7];
        let teacher = |pin_c1| {
            sweep(
                jobs,
                &class_sizes,
                1,
                run::multiparty,
                |&students, _| MultipartySpec {
                    kind,
                    n: students + 1,
                    pin_c1: Some(pin_c1),
                    duration_secs: 60.0,
                    seed: 7,
                },
                |_, _, out| (out.c1_up_mbps, out.c1_down_mbps),
            )
        };
        for ((students, gallery), (_, pinned)) in teacher(false).into_iter().zip(teacher(true)) {
            let ((up, down), (pinned_up, _)) = (gallery[0], pinned[0]);
            println!("{students:>9} {up:>13.2} M {down:>13.2} M {pinned_up:>15.2} M");
        }
        println!();
    }
    println!("The paper's §6 findings to look for:");
    println!(" * Zoom's teacher uplink drops when the class grows past 4 (smaller tiles),");
    println!("   Meet's past 6; Teams never changes (fixed 2x2 layout).");
    println!(" * Pinning the teacher raises *her* uplink: ~1 Mbps for Zoom/Meet at any");
    println!("   class size, but growing with class size for Teams (its §6.2 anomaly).");
}
