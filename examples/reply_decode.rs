//! A client's typed decode (`read_envelope` + `read_query_output`) of a
//! server's frame for a cached answer over the benchmark's small videos
//! (1,800 clips, 600 events, four drivers): 50 and 200 rows, and sweeps
//! over two videos (`serve_hot`) and eight (`routed`). Pinned to one
//! processor; the median µs per decode over 101 batches of 500, fastest
//! and slowest batch beside it: `cargo run --release --example reply_decode`

use std::hint::black_box;
use std::time::Instant;

use cobra_serve::protocol::{ok_frame, read_envelope};
use f1_cobra::catalog::{EventRecord, VideoInfo};
use f1_cobra::json::{answered_len, read_query_output, write_answered};
use f1_cobra::Vdbms;
use f1_media::time::{clips_per_second, VIDEO_FPS};
use f1_monet::ExecBudget;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The payload of a server's frame for `text` over `n` small videos.
fn reply(n: usize, video: &str, text: &str) -> Vec<u8> {
    let vdbms = Vdbms::new();
    let event = |i: usize| EventRecord {
        kind: ["highlight", "excited", "caption:pit_stop"][i % 3].into(),
        start: i * 3,
        end: i * 3 + 2,
        driver: Some(format!("D{}", (i / 3) % 4)),
    };
    let events: Vec<EventRecord> = (0..600).map(event).collect();
    for name in (0..n).map(|v| format!("race-{v}")) {
        let info = VideoInfo {
            name: name.clone(),
            n_clips: 1800,
            n_frames: 1800 * VIDEO_FPS / clips_per_second(),
        };
        vdbms.catalog.register_video(info).expect("register");
        vdbms.catalog.store_events(&name, &events).expect("store");
    }
    let answered = vdbms.answer(video, text, &ExecBudget::unlimited());
    let answered = answered.expect("answer");
    let len = answered_len(&answered);
    ok_frame(1, None, len, |w| write_answered(w, &answered)).expect("frame")[4..].to_vec()
}

fn main() {
    // SAFETY: the 8-byte mask outlives the call; a refused one returns -1.
    let pinned = |cpu: &u64| unsafe { sched_setaffinity(0, 8, &(1 << cpu)) == 0 };
    let cpu = (0..64).rev().find(pinned).expect("a processor");
    let one = "RETRIEVE HIGHLIGHTS WITH DRIVER \"D0\"";
    println!("reply decode on cpu {cpu}: median µs [fastest, slowest]");
    for (shape, payload) in [
        ("50 rows", reply(2, "race-0", one)),
        ("200 rows", reply(2, "race-0", "RETRIEVE HIGHLIGHTS")),
        ("2-video sweep", reply(2, "*", one)),
        ("8-video sweep", reply(8, "*", one)),
    ] {
        let decode = || read_envelope(black_box(&payload), read_query_output).expect("decodes");
        assert!(matches!(decode().result, Some(Some(_))), "{shape}");
        let mut us: Vec<f64> = (0..101)
            .map(|_| {
                let t = Instant::now();
                (0..500).for_each(|_| drop(black_box(decode())));
                t.elapsed().as_secs_f64() * 2e3
            })
            .collect();
        us.sort_by(f64::total_cmp);
        println!("{shape:>14}: {:6.2} [{:.2}, {:.2}]", us[50], us[0], us[100]);
    }
}
