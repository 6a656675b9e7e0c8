//! Shared fixture for the serve integration suites: a catalog-only
//! `Vdbms` (no media pipeline) with one event of every retrievable
//! kind, so servers start instantly and answers are deterministic.
#![allow(dead_code)]

use std::sync::Arc;

use f1_cobra::catalog::{EventRecord, VideoInfo};
use f1_cobra::Vdbms;

/// The fixture's catalog video.
pub const VIDEO: &str = "v";

/// Builds the shared fixture.
pub fn fixture_vdbms() -> Arc<Vdbms> {
    let vdbms = Vdbms::try_new().expect("fresh vdbms");
    vdbms
        .catalog
        .register_video(VideoInfo {
            name: VIDEO.into(),
            n_clips: 200,
            n_frames: 200 * 25 / 10,
        })
        .expect("register fixture video");
    let ev = |kind: &str, start: usize, end: usize, driver: Option<&str>| EventRecord {
        kind: kind.into(),
        start,
        end,
        driver: driver.map(str::to_string),
    };
    vdbms
        .catalog
        .store_events(
            VIDEO,
            &[
                ev("highlight", 10, 40, None),
                ev("fly_out", 15, 25, Some("SCHUMACHER")),
                ev("excited", 12, 30, None),
                ev("caption:pit_stop", 20, 35, Some("MONTOYA")),
                ev("caption:winner", 180, 190, Some("SCHUMACHER")),
            ],
        )
        .expect("store fixture events");
    Arc::new(vdbms)
}

/// A raw protocol session — frames out, payload bytes in, nothing
/// decoded — for tests that compare replies byte for byte, and for
/// scripted peers that misbehave on purpose.
pub struct RawSession {
    pub stream: std::net::TcpStream,
}

impl RawSession {
    pub fn connect(addr: std::net::SocketAddr) -> RawSession {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(15)))
            .expect("arm the no-hang bound");
        RawSession { stream }
    }

    /// Sends `request` as it stands: the test picks the id.
    pub fn send(&mut self, request: &serde_json::Value) {
        use std::io::Write;
        let frame = cobra_serve::protocol::encode_frame(request).expect("request encodes");
        self.stream.write_all(&frame).expect("send");
    }

    /// The next frame's payload.
    pub fn recv(&mut self) -> Vec<u8> {
        use std::io::Read;
        let mut prefix = [0u8; 4];
        self.stream.read_exact(&mut prefix).expect("frame prefix");
        let mut payload = vec![0u8; u32::from_be_bytes(prefix) as usize];
        self.stream.read_exact(&mut payload).expect("frame payload");
        payload
    }
}

/// Asserts, once and without waiting, that a server's pool is at rest:
/// no job running, none queued. Called right after the last reply of a
/// quiescent test arrives — a pool retires a job before it sends the
/// job's reply, so a gauge that still counts it is a lie, not a race.
pub fn assert_pool_at_rest(registry: &cobra_obs::Registry) {
    let snapshot = registry.snapshot();
    let gauges = ["serve.running", "serve.queue_depth"].map(|g| snapshot.gauge(g, &[]));
    assert_eq!(
        gauges,
        [0, 0],
        "serve.running and serve.queue_depth at rest"
    );
}
