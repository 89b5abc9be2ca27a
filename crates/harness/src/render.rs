//! Terminal rendering of bitrate timelines — the `repro` binary's stand-in
//! for the paper's timeline figures (4a, 5a, 6, 9, 11, 13, 14a).

/// Unicode block ramp used for sparklines.
const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// The distinct values of a printed table's row (or column) axis, ascending.
pub fn axis<T: PartialOrd>(values: impl Iterator<Item = T>) -> Vec<T> {
    let mut axis: Vec<T> = values.collect();
    axis.sort_by(|a, b| a.partial_cmp(b).expect("axis values are ordered"));
    axis.dedup();
    axis
}

/// Downsample `series` by averaging every `per_char` bins.
pub fn downsample(series: &[f64], per_char: usize) -> Vec<f64> {
    assert!(per_char > 0, "per_char must be positive");
    series
        .chunks(per_char)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect()
}

/// Render `series` as a one-line sparkline scaled to `max` (values above
/// `max` clamp to the tallest block).
pub fn sparkline(series: &[f64], max: f64) -> String {
    let max = max.max(1e-9);
    series
        .iter()
        .map(|&v| {
            let frac = (v / max).clamp(0.0, 1.0);
            let idx = ((frac * (BLOCKS.len() - 1) as f64).round()) as usize;
            BLOCKS[idx.min(BLOCKS.len() - 1)]
        })
        .collect()
}

/// Render a labelled timeline: a sparkline over 2-second buckets with a
/// marker row highlighting `[mark_from_s, mark_to_s)` (the disruption or
/// competition window).
pub fn timeline(
    label: &str,
    series: &[f64],
    max_mbps: f64,
    mark_from_s: Option<f64>,
    mark_to_s: Option<f64>,
) -> String {
    // 100 ms bins → 2 s per character.
    let per_char = 20;
    let ds = downsample(series, per_char);
    let spark = sparkline(&ds, max_mbps);
    let mut out = format!("  {label:<26} 0..{max_mbps:.1} Mbps\n  |{spark}|\n");
    if let (Some(a), Some(b)) = (mark_from_s, mark_to_s) {
        let marker: String = (0..ds.len())
            .map(|i| {
                let t = i as f64 * per_char as f64 * 0.1;
                if t >= a && t < b {
                    'x'
                } else {
                    '-'
                }
            })
            .collect();
        out.push_str(&format!("  +{marker}+ (x = event window)\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsample_averages() {
        let s = vec![1.0, 3.0, 5.0, 7.0];
        assert_eq!(downsample(&s, 2), vec![2.0, 6.0]);
        assert_eq!(downsample(&s, 4), vec![4.0]);
        // Remainder chunk averages what's left.
        assert_eq!(downsample(&s, 3), vec![3.0, 7.0]);
    }

    #[test]
    fn sparkline_scales_and_clamps() {
        let s = sparkline(&[0.0, 0.5, 1.0, 2.0], 1.0);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[2], '█');
        assert_eq!(chars[3], '█', "clamped above max");
        assert!(chars[1] > chars[0] && chars[1] < chars[2]);
    }

    #[test]
    fn timeline_includes_marker_window() {
        let series = vec![1.0; 600]; // 60 s of 100 ms bins
        let t = timeline("test", &series, 2.0, Some(20.0), Some(40.0));
        assert!(t.contains('x'), "marker drawn");
        assert!(t.contains("test"));
        // 30 chars wide (600 bins / 20).
        // 1.0/2.0 → index round(0.5·7) = 4 → '▅'; 30 chars (600 bins / 20).
        let spark_line = t.lines().nth(1).unwrap();
        assert_eq!(spark_line.chars().filter(|&c| c == '▅').count(), 30);
    }
}
