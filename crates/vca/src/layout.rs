//! Viewing-mode layouts and the resolutions they demand (§6).
//!
//! The paper's modality findings all flow from one mechanism: the video
//! layout on each participant's 1366×768 screen determines the tile size of
//! each remote video, the tile size determines the resolution that receiver
//! requests, and the maximum requested resolution across receivers
//! determines what the sender encodes. Pinning a participant (speaker mode)
//! gives them a full-window tile and therefore raises *their* uplink.
//!
//! Each VCA lays out its gallery differently, and the paper's observed
//! utilization cliffs pin the grids down:
//!
//! * **Zoom**: square grid — 2×2 for four participants, "switching to 5
//!   participants creates a third row"; uplink falls 0.8 → 0.4 Mbps at n=5.
//! * **Meet**: wider tiles longer — the uplink cliff (1 → 0.2 Mbps) appears
//!   only at n=7, implying the tile width crosses Meet's low-stream
//!   threshold between 6 and 7 participants (a 4-column layout from 7 up).
//! * **Teams** (Linux): fixed 2×2 layout showing at most four remote tiles
//!   regardless of call size, so upstream demand never changes.

/// Screen width of the paper's Dell Latitude 3300 laptops.
pub const SCREEN_WIDTH: u32 = 1366;
/// Width requested for a pinned (full-window) participant.
pub const PINNED_WIDTH: u32 = SCREEN_WIDTH;
/// Width requested for thumbnail strips (non-pinned tiles in speaker mode).
pub const THUMBNAIL_WIDTH: u32 = 240;

/// Gallery grid style, one per VCA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridStyle {
    /// Square-ish grid growing with the call (Zoom).
    Square,
    /// Two columns up to four participants, three up to six, four beyond
    /// (Meet's tiled layout on a laptop screen).
    MeetTiles,
    /// Fixed 2×2, at most four remote tiles (Teams on Linux).
    FixedFour,
}

/// A participant's viewing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewMode {
    /// All participants tiled in a grid (the default in all three VCAs).
    Gallery,
    /// A specific participant (by call index) pinned full-window.
    Speaker(u32),
}

impl serde::Serialize for ViewMode {
    /// `"Gallery"` or `{"Speaker": idx}`.
    fn write_json(&self, out: &mut String) {
        match self {
            ViewMode::Gallery => "Gallery".write_json(out),
            ViewMode::Speaker(idx) => serde::json::Members(&[("Speaker", idx)]).write_json(out),
        }
    }
}

impl serde::Deserialize for ViewMode {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        if let Some(s) = v.as_str() {
            return match s {
                "Gallery" => Ok(ViewMode::Gallery),
                other => Err(serde::DeError::msg(format!(
                    "unknown ViewMode `{other}` (expected \"Gallery\" or {{\"Speaker\": idx}})"
                ))),
            };
        }
        if let Some(idx) = v.get("Speaker") {
            return u32::from_json_value(idx)
                .map(ViewMode::Speaker)
                .map_err(|e| e.in_field("Speaker"));
        }
        Err(serde::DeError::expected("ViewMode", v))
    }
}

/// Gallery-grid column count for a call with `n` participants.
pub fn gallery_columns(style: GridStyle, n: usize) -> u32 {
    match style {
        GridStyle::Square => (n as f64).sqrt().ceil() as u32,
        GridStyle::MeetTiles => ((n as u32).div_ceil(2)).clamp(1, 4),
        GridStyle::FixedFour => 2,
    }
}

/// Tile width on screen for a gallery call of `n` participants.
pub fn gallery_tile_width(style: GridStyle, n: usize) -> u32 {
    SCREEN_WIDTH / gallery_columns(style, n.max(1)).max(1)
}

/// Maximum number of remote videos shown simultaneously.
pub fn visible_remote_tiles(style: GridStyle, n: usize) -> usize {
    let remote = n.saturating_sub(1);
    match style {
        GridStyle::FixedFour => remote.min(4),
        _ => remote,
    }
}

/// The width this receiver requests from sender `sender_idx`, given its own
/// view mode and the call size.
pub fn requested_width(style: GridStyle, mode: ViewMode, n: usize, sender_idx: u32) -> u32 {
    match mode {
        // Gallery streams are capped at the encoder ladder's gallery maximum
        // (720 px): a full-window remote in a 2-party call still receives the
        // ordinary high stream; only explicit pinning unlocks the boosted
        // encode (§6.2).
        ViewMode::Gallery => gallery_tile_width(style, n).min(720),
        ViewMode::Speaker(pinned) => {
            if pinned == sender_idx {
                PINNED_WIDTH
            } else {
                THUMBNAIL_WIDTH
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoom_grid_growth_matches_paper() {
        // "Zoom uses a 2×2 grid for 4 participants; switching to 5
        // participants creates a third row."
        assert_eq!(gallery_columns(GridStyle::Square, 4), 2);
        assert_eq!(gallery_columns(GridStyle::Square, 5), 3);
        assert!(
            gallery_tile_width(GridStyle::Square, 5) < gallery_tile_width(GridStyle::Square, 4)
        );
    }

    #[test]
    fn zoom_tile_width_crosses_layer_thresholds_at_five() {
        // n=4: 683 px → full SVC stack; n=5: 455 px → two layers (the
        // 0.8 → 0.4 Mbps uplink cliff of §6.1).
        assert!(gallery_tile_width(GridStyle::Square, 4) >= 600);
        let w5 = gallery_tile_width(GridStyle::Square, 5);
        assert!((350..600).contains(&w5), "w5 = {w5}");
    }

    #[test]
    fn meet_crosses_low_stream_threshold_at_seven() {
        // Meet's uplink cliff is at n=7 (1 → 0.2 Mbps): tile width must stay
        // at or above the 350 px high-stream threshold through n=6 and fall
        // below it at n=7.
        for n in 2..=6 {
            assert!(gallery_tile_width(GridStyle::MeetTiles, n) >= 350, "n={n}");
        }
        assert!(gallery_tile_width(GridStyle::MeetTiles, 7) < 350);
    }

    #[test]
    fn teams_fixed_layout() {
        for n in 2..=8 {
            assert_eq!(gallery_columns(GridStyle::FixedFour, n), 2);
            assert_eq!(
                gallery_tile_width(GridStyle::FixedFour, n),
                SCREEN_WIDTH / 2
            );
        }
        assert_eq!(visible_remote_tiles(GridStyle::FixedFour, 8), 4);
        assert_eq!(visible_remote_tiles(GridStyle::FixedFour, 3), 2);
        assert_eq!(visible_remote_tiles(GridStyle::Square, 8), 7);
    }

    #[test]
    fn speaker_mode_requests() {
        let pinned = requested_width(GridStyle::Square, ViewMode::Speaker(2), 6, 2);
        let other = requested_width(GridStyle::Square, ViewMode::Speaker(2), 6, 3);
        assert_eq!(pinned, PINNED_WIDTH);
        assert_eq!(other, THUMBNAIL_WIDTH);
    }

    #[test]
    fn gallery_requests_equal_tile_width() {
        assert_eq!(
            requested_width(GridStyle::Square, ViewMode::Gallery, 5, 0),
            gallery_tile_width(GridStyle::Square, 5)
        );
    }
}
