//! # vcabench-vca
//!
//! Behavioral models of the three video conferencing applications the paper
//! measures — Zoom, Google Meet, and Microsoft Teams — built on the packet
//! simulator (`vcabench-netsim`), the transport models
//! (`vcabench-transport`), the congestion controllers
//! (`vcabench-congestion`), and the media pipeline (`vcabench-media`).
//!
//! * [`VcaClient`] — encoder + pacer + congestion controller + decoder with
//!   WebRTC-style per-second statistics.
//! * [`VcaServer`] — Meet's simulcast SFU, Zoom's SVC SFU with server FEC,
//!   or Teams' pure relay.
//! * [`call`] — orchestration (the simulation's PyAutoGUI).
//! * [`layout`] — gallery/speaker layouts and the resolutions they demand.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod call;
pub mod client;
pub mod config;
pub mod layout;
pub mod server;
pub mod stats_api;

pub use call::{wire_call, CallHandles};
pub use client::VcaClient;
pub use config::VcaKind;
pub use layout::{GridStyle, ViewMode};
pub use server::VcaServer;
pub use stats_api::{StatsCollector, StatsSample};

#[cfg(test)]
mod proptests {
    use super::layout::*;
    use proptest::prelude::*;

    proptest! {
        /// Tile width is monotone non-increasing in call size for every grid.
        #[test]
        fn tile_width_monotone(n in 1usize..32) {
            for style in [GridStyle::Square, GridStyle::MeetTiles, GridStyle::FixedFour] {
                prop_assert!(
                    gallery_tile_width(style, n + 1) <= gallery_tile_width(style, n),
                    "{style:?} at n={n}"
                );
            }
        }

        /// Visible tiles never exceed the remote count, and Teams caps at 4.
        #[test]
        fn visible_tiles_bounded(n in 1usize..32) {
            for style in [GridStyle::Square, GridStyle::MeetTiles, GridStyle::FixedFour] {
                let v = visible_remote_tiles(style, n);
                prop_assert!(v <= n.saturating_sub(1));
                if style == GridStyle::FixedFour {
                    prop_assert!(v <= 4);
                }
            }
        }

        /// Requested widths are always positive, bounded by the screen, and
        /// a pinned sender is asked for at least as much as anyone else.
        #[test]
        fn requested_width_sane(n in 2usize..16, pinned in 0u32..16, sender in 0u32..16) {
            for style in [GridStyle::Square, GridStyle::MeetTiles, GridStyle::FixedFour] {
                for mode in [ViewMode::Gallery, ViewMode::Speaker(pinned)] {
                    let w = requested_width(style, mode, n, sender);
                    prop_assert!(w > 0 && w <= SCREEN_WIDTH);
                }
                let at_pin = requested_width(style, ViewMode::Speaker(pinned), n, pinned);
                let other = requested_width(style, ViewMode::Speaker(pinned), n, pinned + 1);
                prop_assert!(at_pin >= other);
            }
        }
    }
}
