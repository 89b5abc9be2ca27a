//! VCA identities (§2.2). Each kind's parameters sit where it is built:
//! the client's in `VcaClient::new`, the server's in `VcaServer::new`.
//!
//! The paper studies three applications, two of which ship both a native
//! desktop client and an in-browser (Chrome/WebRTC) client with measurably
//! different behaviour (Fig 1c): at 1 Mbps uplink shaping, Teams-native used
//! 0.84 Mbps where Teams-Chrome used only 0.61 Mbps; Zoom's two clients were
//! indistinguishable.

/// Which application (and client variant) a simulated client runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum VcaKind {
    /// Zoom native desktop client.
    Zoom,
    /// Zoom in Chrome (DataChannel transport; network behaviour matches the
    /// native client per Fig 1c).
    ZoomChrome,
    /// Google Meet (always in Chrome; WebRTC/GCC).
    Meet,
    /// Microsoft Teams native desktop client.
    Teams,
    /// Microsoft Teams in Chrome: lower target bitrates and a more timid
    /// controller than the native client.
    TeamsChrome,
}

impl VcaKind {
    /// Display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            VcaKind::Zoom => "Zoom",
            VcaKind::ZoomChrome => "Zoom-Chrome",
            VcaKind::Meet => "Meet",
            VcaKind::Teams => "Teams",
            VcaKind::TeamsChrome => "Teams-Chrome",
        }
    }

    /// The three base applications, native variants.
    /// engineering: a list of variants, not a model number.
    pub const NATIVE: [VcaKind; 3] = [VcaKind::Meet, VcaKind::Teams, VcaKind::Zoom];

    /// Every client variant.
    /// engineering: a list of variants, not a model number.
    pub const ALL: [VcaKind; 5] = [
        VcaKind::Zoom,
        VcaKind::ZoomChrome,
        VcaKind::Meet,
        VcaKind::Teams,
        VcaKind::TeamsChrome,
    ];

    /// True for the WebRTC-in-Chrome clients whose stats the paper can read
    /// (§3.2: Meet and Teams-Chrome; Zoom-Chrome uses DataChannels and
    /// exposes no video-quality metrics).
    pub fn has_webrtc_stats(self) -> bool {
        matches!(self, VcaKind::Meet | VcaKind::TeamsChrome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(VcaKind::Zoom.name(), "Zoom");
        assert_eq!(VcaKind::TeamsChrome.name(), "Teams-Chrome");
    }

    #[test]
    fn kind_serde_and_from_name() {
        use serde::{Deserialize, Serialize};
        for kind in VcaKind::ALL {
            let mut text = String::new();
            kind.write_json(&mut text);
            assert_eq!(text, format!("\"{kind:?}\""));
            let v = serde::Value::String(format!("{kind:?}"));
            assert_eq!(VcaKind::from_json_value(&v), Ok(kind));
        }
        assert!(VcaKind::from_json_value(&serde::Value::U64(1)).is_err());
    }

    #[test]
    fn webrtc_stats_availability() {
        assert!(VcaKind::Meet.has_webrtc_stats());
        assert!(VcaKind::TeamsChrome.has_webrtc_stats());
        assert!(!VcaKind::Zoom.has_webrtc_stats());
        assert!(!VcaKind::ZoomChrome.has_webrtc_stats());
        assert!(!VcaKind::Teams.has_webrtc_stats());
    }
}
