//! The experiment functions, one per table/figure of the paper.

use std::time::Instant;

use f1_bayes::bk::Clusters;
use f1_bayes::metrics::{accumulate, roughness};
use f1_bayes::paper::{BnStructure, PaperNet, TemporalVariant};
use f1_media::features::audio::AudioAnalyzer;
use f1_media::features::endpoint::{energy_entropy, zero_crossing_rate, EndpointConfig};
use f1_media::features::video::{detect_shots, ShotConfig};
use f1_media::synth::audio::AudioSynth;
use f1_media::synth::video::VideoSynth;
use f1_media::time::{clips_per_second, VIDEO_FPS};
use f1_media::window::Window;

use crate::avnet::{evaluate_av, train_av, AvModel};
use crate::data::RaceData;
use crate::excited::{
    bn_precision_recall, clip_errors, dbn_precision_recall, infer_trace, train_bn, train_dbn,
    BN_ACCUMULATE_WINDOW,
};
use crate::report::{Cell, Table};

fn pr_cells(name: &str, p: f64, r: f64) -> Vec<Cell> {
    vec![Cell::Text(name.into()), Cell::Percent(p), Cell::Percent(r)]
}

/// Output of the Table 1 experiment: the table plus the trained networks
/// that later experiments reuse.
pub struct Table1Out {
    /// The rendered table.
    pub table: Table,
    /// The trained fully-parameterized static BN.
    pub bn_full: PaperNet,
    /// The trained fully-parameterized DBN (Fig. 8 wiring).
    pub dbn_full: PaperNet,
}

/// **Table 1** — three BN structures vs the fully parameterized DBN for
/// emphasized-speech detection on the German GP.
pub fn table1(german: &RaceData) -> Table1Out {
    let bn_full = train_bn(BnStructure::FullyParameterized, german);
    let bn_direct = train_bn(BnStructure::DirectEvidence, german);
    let bn_io = train_bn(BnStructure::InputOutput, german);
    let dbn_full = train_dbn(
        BnStructure::FullyParameterized,
        TemporalVariant::Full,
        german,
    );

    let mut table = Table::new(
        "Table 1 — Comparison of BNs and DBNs for detection of emphasized speech (German GP)",
        &["Network", "Precision", "Recall"],
    );
    for (name, net, is_dbn) in [
        ("Fully parameterized BN (Fig 7a)", &bn_full, false),
        (
            "BN with direct evidence influence (Fig 7b)",
            &bn_direct,
            false,
        ),
        ("Input/Output BN (Fig 7c)", &bn_io, false),
        ("Fully parameterized DBN (Fig 8 + 7a)", &dbn_full, true),
    ] {
        let trace = infer_trace(net, german, None);
        let pr = if is_dbn {
            dbn_precision_recall(&trace, german)
        } else {
            bn_precision_recall(&trace, german)
        };
        table.row(pr_cells(name, pr.precision, pr.recall));
    }
    Table1Out {
        table,
        bn_full,
        dbn_full,
    }
}

/// **Table 2** — the audio DBN trained on the German GP, evaluated on the
/// Belgian and USA GPs.
pub fn table2(dbn_full: &PaperNet, belgian: &RaceData, usa: &RaceData) -> Table {
    let mut table = Table::new(
        "Table 2 — Evaluation results for the audio DBN (trained on German GP)",
        &["Race", "Precision", "Recall"],
    );
    for (name, race) in [("Belgian Grand Prix", belgian), ("USA Grand Prix", usa)] {
        let trace = infer_trace(dbn_full, race, None);
        let pr = dbn_precision_recall(&trace, race);
        table.row(pr_cells(name, pr.precision, pr.recall));
    }
    table
}

/// Output of Table 3: table plus the trained audio-visual models.
pub struct Table3Out {
    /// The rendered table.
    pub table: Table,
    /// Audio-visual model *with* the passing sub-network.
    pub with_passing: AvModel,
    /// Audio-visual model *without* the passing sub-network.
    pub without_passing: AvModel,
}

/// **Table 3** — the audio-visual DBN on the German GP: highlights plus
/// start / fly-out / passing classification.
pub fn table3(german: &RaceData) -> Table3Out {
    let with_passing = train_av(german, true);
    let without_passing = train_av(german, false);
    let eval = evaluate_av(&with_passing, german);
    let mut table = Table::new(
        "Table 3 — The audio-visual DBN (German GP)",
        &["Query", "Precision", "Recall"],
    );
    table.row(pr_cells(
        "Highlights",
        eval.highlights.precision,
        eval.highlights.recall,
    ));
    table.row(pr_cells("Start", eval.start.precision, eval.start.recall));
    table.row(pr_cells(
        "Fly Out",
        eval.fly_out.precision,
        eval.fly_out.recall,
    ));
    if let Some(ps) = eval.passing {
        table.row(pr_cells("Passing", ps.precision, ps.recall));
    }
    Table3Out {
        table,
        with_passing,
        without_passing,
    }
}

/// **Table 4** — the audio-visual DBN on the Belgian GP (with the passing
/// sub-network) and the USA GP (without it; that race has no fly-outs).
pub fn table4(models: &Table3Out, belgian: &RaceData, usa: &RaceData) -> Table {
    let mut table = Table::new(
        "Table 4 — Evaluation results for the audio-visual DBN (Belgian with passing subnet, USA without)",
        &["Race / Query", "Precision", "Recall"],
    );
    let be = evaluate_av(&models.with_passing, belgian);
    table.row(pr_cells(
        "Belgian: Highlights",
        be.highlights.precision,
        be.highlights.recall,
    ));
    table.row(pr_cells(
        "Belgian: Start",
        be.start.precision,
        be.start.recall,
    ));
    table.row(pr_cells(
        "Belgian: Fly Out",
        be.fly_out.precision,
        be.fly_out.recall,
    ));
    if let Some(ps) = be.passing {
        table.row(pr_cells("Belgian: Passing", ps.precision, ps.recall));
    }
    let us = evaluate_av(&models.without_passing, usa);
    table.row(pr_cells(
        "USA: Highlights",
        us.highlights.precision,
        us.highlights.recall,
    ));
    table.row(pr_cells("USA: Start", us.start.precision, us.start.recall));
    // The USA race has no fly-outs (paper footnote 3): both metrics 0.
    table.row(pr_cells(
        "USA: Fly Out",
        us.fly_out.precision,
        us.fly_out.recall,
    ));
    table
}

/// **Fig. 9** — BN vs DBN inference traces over a 300 s window: the BN
/// output is noisy and needs accumulation, the DBN output is smooth.
/// Returns the summary table and the two traces for plotting.
pub fn fig9(
    bn_full: &PaperNet,
    dbn_full: &PaperNet,
    german: &RaceData,
) -> (Table, Vec<f64>, Vec<f64>) {
    let bn_trace: Vec<f64> =
        infer_trace(bn_full, german, None)[..3000.min(german.features.len())].to_vec();
    let dbn_trace: Vec<f64> =
        infer_trace(dbn_full, german, None)[..3000.min(german.features.len())].to_vec();
    let range = |tr: &[f64]| {
        let mx = tr.iter().cloned().fold(f64::MIN, f64::max);
        let mn = tr.iter().cloned().fold(f64::MAX, f64::min);
        (mx - mn).max(1e-9)
    };
    let mut table = Table::new(
        "Fig. 9 — BN (a) vs DBN (b) inference over a 300 s window (normalized roughness: mean |Δp| / range)",
        &["Trace", "Roughness", "Normalized", "Post-processing"],
    );
    table.row(vec![
        Cell::Text("Audio BN".into()),
        Cell::Num(roughness(&bn_trace)),
        Cell::Num(roughness(&bn_trace) / range(&bn_trace)),
        Cell::Text(format!(
            "accumulated over {BN_ACCUMULATE_WINDOW} clips before thresholding"
        )),
    ]);
    let bn_acc = accumulate(&bn_trace, BN_ACCUMULATE_WINDOW);
    table.row(vec![
        Cell::Text("Audio BN (accumulated)".into()),
        Cell::Num(roughness(&bn_acc)),
        Cell::Num(roughness(&bn_acc) / range(&bn_acc)),
        Cell::Empty,
    ]);
    table.row(vec![
        Cell::Text("Audio DBN".into()),
        Cell::Num(roughness(&dbn_trace)),
        Cell::Num(roughness(&dbn_trace) / range(&dbn_trace)),
        Cell::Text("thresholded directly".into()),
    ]);
    (table, bn_trace, dbn_trace)
}

/// **§5.5 temporal-dependency experiment** — three inter-slice wirings of
/// the fully parameterized DBN.
pub fn temporal(german: &RaceData) -> Table {
    let mut table = Table::new(
        "§5.5 — Influence of temporal dependencies (fully parameterized DBN, German GP)",
        &["Wiring", "Precision", "Recall"],
    );
    for (name, variant) in [
        ("V1: full inter-slice wiring (Fig 8)", TemporalVariant::Full),
        (
            "V2: only the query receives temporal evidence",
            TemporalVariant::QueryOnly,
        ),
        (
            "V3: persistence + mids feed the query",
            TemporalVariant::NoQueryFanOut,
        ),
    ] {
        let net = train_dbn(BnStructure::FullyParameterized, variant, german);
        let trace = infer_trace(&net, german, None);
        let pr = dbn_precision_recall(&trace, german);
        table.row(pr_cells(name, pr.precision, pr.recall));
    }
    table
}

/// **§5.5 clustering experiment** — Boyen–Koller projection with all
/// hidden nodes in one cluster ("exact") vs the query node separated vs
/// fully factored.
pub fn clustering(dbn_full: &PaperNet, german: &RaceData) -> Table {
    let mut table = Table::new(
        "§5.5 — Boyen-Koller clustering (fully parameterized DBN, German GP)",
        &[
            "Clusters",
            "Precision",
            "Recall",
            "Misclassified clips",
            "Mean |Δp| vs exact",
        ],
    );
    let exact_trace = infer_trace(dbn_full, german, None);
    let configs: Vec<(&str, Clusters)> = vec![
        ("one cluster (exact)", Clusters::single(&dbn_full.dbn)),
        (
            "query separated from other hidden nodes",
            Clusters::separate(&dbn_full.dbn, &["EA"]).expect("EA is hidden"),
        ),
        (
            "fully factored (one node per cluster)",
            Clusters::singletons(&dbn_full.dbn),
        ),
    ];
    for (name, clusters) in configs {
        let trace = infer_trace(dbn_full, german, Some(&clusters));
        let pr = dbn_precision_recall(&trace, german);
        let errors = clip_errors(&trace, german);
        let divergence = trace
            .iter()
            .zip(&exact_trace)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / trace.len() as f64;
        table.row(vec![
            Cell::Text(name.into()),
            Cell::Percent(pr.precision),
            Cell::Percent(pr.recall),
            Cell::Num(errors as f64),
            Cell::Num(divergence),
        ]);
    }
    table
}

/// **§5.2 keyword-spotting experiment** — clean-speech vs TV-news
/// acoustic models.
pub fn keywords(german: &RaceData) -> Table {
    use f1_keyword::{spot, AcousticModel, Grammar, PhonemeStream, SpotterConfig};
    let stream = PhonemeStream::from_scenario(&german.scenario);
    let grammar = Grammar::formula1();
    let mut table = Table::new(
        "§5.2 — Keyword spotting: clean-speech vs TV-news acoustic models (German GP)",
        &["Acoustic model", "Precision", "Recall", "Spots"],
    );
    for (name, model) in [
        ("clean speech", AcousticModel::CleanSpeech),
        ("TV news", AcousticModel::TvNews),
    ] {
        let spots = spot(&stream, &grammar, model, &SpotterConfig::default());
        let (p, r) = f1_keyword::spotter::evaluate(&spots, &german.scenario.keywords, 2);
        table.row(vec![
            Cell::Text(name.into()),
            Cell::Percent(p),
            Cell::Percent(r),
            Cell::Num(spots.len() as f64),
        ]);
    }
    table
}

/// **§5.2 endpoint-detection experiment** — the STE+MFCC detector vs the
/// entropy and zero-crossing-rate features the paper found "powerless"
/// in broadcast noise. Every detector's threshold is tuned on the first
/// minute, then evaluated on the rest.
pub fn endpoint(german: &RaceData) -> Table {
    let scenario = &german.scenario;
    let audio = AudioSynth::new(scenario);
    let analyzer = AudioAnalyzer::standard();
    let cfg = EndpointConfig::calibrated();
    let n = scenario.n_clips;

    // Per-clip statistics for each detector.
    let mut ste_stat = Vec::with_capacity(n);
    let mut mfcc_stat = Vec::with_capacity(n);
    let mut entropy = Vec::with_capacity(n);
    let mut zcr = Vec::with_capacity(n);
    let mut truth = Vec::with_capacity(n);
    for clip in 0..n {
        let samples = audio.clip(clip);
        let f = analyzer
            .analyze_clip(&samples)
            .expect("clips have the right length");
        ste_stat.push(cfg.ste_statistic(&f));
        mfcc_stat.push(cfg.mfcc_statistic(&f));
        // Frame energies for the entropy feature.
        let energies: Vec<f64> = samples
            .chunks(f1_media::time::FRAME_SAMPLES)
            .map(|fr| f1_media::features::audio::short_time_energy(fr, Window::Hamming))
            .collect();
        entropy.push(energy_entropy(&energies));
        zcr.push(zero_crossing_rate(&samples));
        truth.push(scenario.is_speech(clip));
    }

    // Tune scalar thresholds (both directions) on the first 600 clips.
    let tune = |values: &[f64]| -> (f64, bool) {
        let cal = 600.min(values.len());
        let mut best = (0.0, true, 0usize);
        for i in 0..=40 {
            let lo = values[..cal].iter().cloned().fold(f64::MAX, f64::min);
            let hi = values[..cal].iter().cloned().fold(f64::MIN, f64::max);
            let thr = lo + (hi - lo) * i as f64 / 40.0;
            for &above in &[true, false] {
                let correct = (0..cal)
                    .filter(|&t| ((values[t] > thr) == above) == truth[t])
                    .count();
                if correct > best.2 {
                    best = (thr, above, correct);
                }
            }
        }
        (best.0, best.1)
    };
    let accuracy = |detected: &[bool]| -> f64 {
        let eval: Vec<usize> = (600.min(n)..n).collect();
        let correct = eval.iter().filter(|&&t| detected[t] == truth[t]).count();
        correct as f64 / eval.len().max(1) as f64
    };

    let mut table = Table::new(
        "§5.2 — Speech endpoint detection: STE+MFCC vs entropy vs zero-crossing rate",
        &["Detector", "Accuracy (held-out)"],
    );
    // Tune the paper's two-threshold detector on the same prefix the
    // competitors get: a 2-D grid over the conjunction "STE above t1 AND
    // MFCC above t2" (speech always means *more* band energy).
    let cal = 600.min(n);
    let grid = |values: &[f64]| -> Vec<f64> {
        let lo = values[..cal].iter().cloned().fold(f64::MAX, f64::min);
        let hi = values[..cal].iter().cloned().fold(f64::MIN, f64::max);
        (0..20).map(|i| lo + (hi - lo) * i as f64 / 20.0).collect()
    };
    let mut best = (0.0, 0.0, 0usize);
    for &t1 in &grid(&ste_stat) {
        for &t2 in &grid(&mfcc_stat) {
            let correct = (0..cal)
                .filter(|&t| (ste_stat[t] > t1 && mfcc_stat[t] > t2) == truth[t])
                .count();
            if correct > best.2 {
                best = (t1, t2, correct);
            }
        }
    }
    let (ste_thr, mfcc_thr, _) = best;
    let ste_mfcc: Vec<bool> = ste_stat
        .iter()
        .zip(&mfcc_stat)
        .map(|(&s, &m)| s > ste_thr && m > mfcc_thr)
        .collect();
    table.row(vec![
        Cell::Text("STE + MFCC (paper's detector, tuned)".into()),
        Cell::Percent(accuracy(&ste_mfcc)),
    ]);
    for (name, values) in [("energy entropy", &entropy), ("zero-crossing rate", &zcr)] {
        let (thr, above) = tune(values);
        let detected: Vec<bool> = values.iter().map(|&v| (v > thr) == above).collect();
        table.row(vec![
            Cell::Text(format!("{name} (tuned threshold)")),
            Cell::Percent(accuracy(&detected)),
        ]);
    }
    table
}

/// **§5.3 shot-detection experiment** — multi-frame histogram differencing
/// accuracy (the paper reports over 90 %).
pub fn shots(german: &RaceData) -> Table {
    let scenario = &german.scenario;
    let video = VideoSynth::new(scenario);
    let hi = scenario
        .n_frames()
        .min(90 * VIDEO_FPS * clips_per_second() / clips_per_second());
    let detected = detect_shots(&video, 0, hi, &ShotConfig::default());
    let truth: Vec<usize> = scenario
        .shot_cuts
        .iter()
        .copied()
        .filter(|&c| {
            let clip = c * clips_per_second() / VIDEO_FPS;
            c < hi && !scenario.is_replay(clip) && !scenario.is_replay(clip.saturating_sub(1))
        })
        .collect();
    let found = truth
        .iter()
        .filter(|&&t| detected.iter().any(|&d| d.abs_diff(t) <= 2))
        .count();
    let hard_fp = detected
        .iter()
        .filter(|&&d| {
            let clip = d * clips_per_second() / VIDEO_FPS;
            let near_cut = truth.iter().any(|&t| d.abs_diff(t) <= 2);
            let near_replay = scenario.is_replay(clip)
                || scenario.is_replay(clip.saturating_sub(1))
                || scenario.is_replay(clip + 1);
            !near_cut && !near_replay
        })
        .count();
    let mut table = Table::new(
        "§5.3 — Shot-boundary detection (histogram difference over consecutive frames)",
        &["Metric", "Value"],
    );
    table.row(vec![
        Cell::Text("Recall".into()),
        Cell::Percent(found as f64 / truth.len().max(1) as f64),
    ]);
    table.row(vec![
        Cell::Text("Precision (excl. replay-boundary effects)".into()),
        Cell::Percent(1.0 - hard_fp as f64 / detected.len().max(1) as f64),
    ]);
    table.row(vec![
        Cell::Text("True cuts in window".into()),
        Cell::Num(truth.len() as f64),
    ]);
    table
}

/// **Fig. 3/4** — parallel evaluation of six HMMs: the model bank
/// evaluated serially vs on six threads, through the same MIL path the
/// paper shows.
pub fn hmm_parallel() -> Table {
    use f1_hmm::{train as hmm_train, DiscreteHmm, HmmBank, TrainConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(0xF1);
    let names = [
        "Service",
        "Forehand",
        "Smash",
        "Backhand",
        "VolleyBackhand",
        "VolleyForehand",
    ];
    let mut bank = HmmBank::new();
    let mut probes = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let truth = DiscreteHmm::random(16, 24, &mut rng);
        let data: Vec<Vec<usize>> = (0..4).map(|_| truth.sample(400, &mut rng).1).collect();
        let mut model = DiscreteHmm::random(16, 24, &mut rng);
        hmm_train(
            &mut model,
            &data,
            &TrainConfig {
                max_iters: 5,
                ..TrainConfig::default()
            },
        )
        .expect("training succeeds");
        bank.insert(name, model);
        if i == 0 {
            probes = truth.sample(50_000, &mut rng).1;
        }
    }

    let reps = 3;
    let t0 = Instant::now();
    for _ in 0..reps {
        bank.evaluate(&probes).expect("evaluation succeeds");
    }
    let serial = t0.elapsed().as_secs_f64() / reps as f64;
    let t0 = Instant::now();
    for _ in 0..reps {
        bank.evaluate_parallel(&probes, 6)
            .expect("evaluation succeeds");
    }
    let parallel = t0.elapsed().as_secs_f64() / reps as f64;

    // Results identical either way.
    let a = bank.evaluate(&probes).unwrap();
    let b = bank.evaluate_parallel(&probes, 6).unwrap();
    let identical = a
        .iter()
        .zip(&b)
        .all(|(x, y)| x.0 == y.0 && (x.1 - y.1).abs() < 1e-9);

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut table = Table::new(
        &format!(
            "Fig. 3/4 — Parallel evaluation of 6 HMMs (16 states, 50 000 symbols; {cores} core(s) available — speedup is bounded by the hardware)"
        ),
        &["Configuration", "Seconds/eval", "Speedup", "Identical results"],
    );
    table.row(vec![
        Cell::Text("serial (threadcnt 1)".into()),
        Cell::Num(serial),
        Cell::Num(1.0),
        Cell::Empty,
    ]);
    table.row(vec![
        Cell::Text("parallel (threadcnt 6)".into()),
        Cell::Num(parallel),
        Cell::Num(serial / parallel.max(1e-9)),
        Cell::Text(identical.to_string()),
    ]);
    table
}

/// **§6 ablation** — "the audio DBN was able only to detect 50% of all
/// interesting segments in the race, while the integrated audio-visual
/// DBN was able to correct the results and detect about 80%": the same
/// trained network filtered with audio-only vs full evidence.
pub fn ablation(models: &Table3Out, german: &RaceData) -> Table {
    use crate::avnet::{infer_av, infer_av_audio_only};
    use f1_bayes::metrics::{accumulate, precision_recall, threshold_segments};

    let mut table = Table::new(
        "§6 ablation — audio-only vs audio-visual highlight detection (German GP)",
        &["Evidence", "Precision", "Recall"],
    );
    let truth = german.highlight_truth();
    for (name, traces) in [
        (
            "audio only (f1–f10)",
            infer_av_audio_only(&models.with_passing, german),
        ),
        (
            "audio-visual (f1–f17)",
            infer_av(&models.with_passing, german),
        ),
    ] {
        let smooth = accumulate(&traces.highlight, 10);
        // Shared decision level so the comparison isolates the evidence.
        let segs = threshold_segments(&smooth, 0.35, 60, 30);
        let pr = precision_recall(&segs, &truth);
        table.row(pr_cells(name, pr.precision, pr.recall));
    }
    table
}

/// **§5.6 retrieval queries** — the full VDBMS pipeline answering the
/// paper's query set, each answer checked against ground truth.
pub fn queries(german: &RaceData) -> Table {
    use f1_cobra::Vdbms;
    use f1_media::synth::scenario::{EventKind, Span};

    let scenario = &german.scenario;
    let vdbms = Vdbms::new();
    // Reuse the prepared feature matrix instead of re-extracting.
    vdbms
        .catalog
        .register_video(f1_cobra::catalog::VideoInfo {
            name: "german".into(),
            n_clips: scenario.n_clips,
            n_frames: scenario.n_frames(),
        })
        .expect("register bench video");
    vdbms
        .catalog
        .store_features("german", &german.features)
        .expect("catalog accepts the matrix");
    // Captions still need the text pipeline.
    let video = VideoSynth::new(scenario);
    let vocab = f1_text::Vocabulary::formula1();
    let captions = f1_text::scan_broadcast(
        &video,
        0,
        scenario.n_frames(),
        &vocab,
        &f1_text::pipeline::PipelineConfig::default(),
    );
    let cps = clips_per_second();
    let records: Vec<f1_cobra::catalog::EventRecord> = captions
        .iter()
        .filter_map(|c| {
            let parsed = c.parsed.as_ref()?;
            use f1_media::synth::scenario::CaptionKind as CK;
            let kind = match parsed.kind {
                CK::PitStop => "caption:pit_stop",
                CK::Classification => "caption:classification",
                CK::FastestLap => "caption:fastest_lap",
                CK::FinalLap => "caption:final_lap",
                CK::Winner => "caption:winner",
            };
            Some(f1_cobra::catalog::EventRecord {
                kind: kind.into(),
                start: c.start_frame * cps / VIDEO_FPS,
                end: (c.end_frame * cps / VIDEO_FPS).max(c.start_frame * cps / VIDEO_FPS + 1),
                driver: parsed
                    .driver
                    .map(|d| f1_media::synth::scenario::DRIVERS[d].to_string()),
            })
        })
        .collect();
    vdbms
        .catalog
        .store_events("german", &records)
        .expect("catalog accepts events");
    let windows: Vec<Span> = crate::avnet::training_windows(scenario.n_clips)
        .into_iter()
        .map(|(s, e)| Span::new(s, e))
        .collect();
    vdbms
        .train_highlight_net("german", scenario, &windows, true)
        .expect("training succeeds");
    vdbms.annotate("german").expect("annotation succeeds");

    let overlap = |seg: &f1_cobra::RetrievedSegment, spans: &[Span]| -> bool {
        spans.iter().any(|s| s.start < seg.end && seg.start < s.end)
    };
    let winner_driver = scenario.standings_at(scenario.n_clips - 1)[0];
    let winner_name = f1_media::synth::scenario::DRIVERS[winner_driver];

    let mut table = Table::new(
        "§5.6 — Retrieval queries over the annotated German GP",
        &["Query", "Segments", "Grounded"],
    );
    let mut run = |query: String, truth: Vec<Span>, require_nonempty: bool| {
        let results = vdbms.query("german", &query).expect("query parses");
        // Grounded: results exist (when expected) and at least two thirds
        // of them overlap ground truth (detection is probabilistic; a few
        // false alarms are the paper's reality too).
        let grounded = if truth.is_empty() {
            !require_nonempty || !results.is_empty()
        } else if results.is_empty() {
            false
        } else {
            let ok = results.iter().filter(|seg| overlap(seg, &truth)).count();
            ok * 3 >= results.len() * 2
        };
        table.row(vec![
            Cell::Text(query),
            Cell::Num(results.len() as f64),
            Cell::Text(if grounded { "yes".into() } else { "NO".into() }),
        ]);
    };

    run(
        "RETRIEVE HIGHLIGHTS".into(),
        scenario.highlights().to_vec(),
        true,
    );
    // Sub-event windows live inside detected highlights; replays of an
    // event legitimately classify as that event, so ground these against
    // the interesting-segment truth (kind accuracy is Table 3's job).
    run(
        "RETRIEVE EVENTS FLY_OUT".into(),
        scenario.highlights().to_vec(),
        true,
    );
    run(
        "RETRIEVE EVENTS START".into(),
        scenario.highlights().to_vec(),
        true,
    );
    // Pit stop of a driver who truly pitted.
    let pit = scenario
        .events
        .iter()
        .find(|e| e.kind == EventKind::PitStop)
        .expect("scenario has pit stops");
    let pit_driver = f1_media::synth::scenario::DRIVERS[pit.driver.unwrap()];
    run(
        format!("RETRIEVE PITSTOPS WITH DRIVER \"{pit_driver}\""),
        scenario
            .events
            .iter()
            .filter(|e| {
                e.kind == EventKind::PitStop
                    && e.driver.map(|d| f1_media::synth::scenario::DRIVERS[d]) == Some(pit_driver)
            })
            .map(|e| e.span)
            .collect(),
        true,
    );
    run(
        format!("RETRIEVE SEGMENTS WITH DRIVER \"{winner_name}\""),
        Vec::new(),
        true,
    );
    run(
        format!("RETRIEVE LEADER WITH DRIVER \"{winner_name}\""),
        Vec::new(),
        false,
    );
    run("RETRIEVE WINNER".into(), Vec::new(), true);
    run("RETRIEVE EXCITED".into(), scenario.excited.to_vec(), true);
    run(
        format!("RETRIEVE HIGHLIGHTS AT PITLANE WITH DRIVER \"{pit_driver}\""),
        Vec::new(),
        false,
    );
    table
}

/// **Observability** — the metrics registry and `PROFILE` span trees
/// under a pure retrieval workload: a catalog-only video is queried
/// repeatedly, then the per-op kernel histograms, the MIL interpreter
/// counters and one profiled span tree are dumped. Returns the table
/// plus a machine-readable JSON document (written to `BENCH_obs.json`
/// by the experiments binary and validated by CI).
pub fn obs() -> (Table, serde_json::Value) {
    use f1_cobra::catalog::{EventRecord, VideoInfo};
    use f1_cobra::{QueryOutput, Vdbms};

    const CLIPS: usize = 600;
    const REPS: usize = 100;

    // Catalog-only fixture: no media pipeline, so the numbers isolate
    // the query path (conceptual level -> Moa -> MIL -> kernel ops).
    let vdbms = Vdbms::new();
    vdbms
        .catalog
        .register_video(VideoInfo {
            name: "bench".into(),
            n_clips: CLIPS,
            n_frames: CLIPS * VIDEO_FPS / clips_per_second(),
        })
        .expect("register bench video");
    let events: Vec<EventRecord> = (0..CLIPS / 3)
        .map(|i| EventRecord {
            kind: match i % 3 {
                0 => "highlight",
                1 => "excited",
                _ => "caption:pit_stop",
            }
            .into(),
            start: i * 3,
            end: i * 3 + 2,
            driver: (i % 4 == 0).then(|| "SCHUMACHER".to_string()),
        })
        .collect();
    vdbms
        .catalog
        .store_events("bench", &events)
        .expect("catalog accepts events");

    let before = vdbms.kernel().metrics().registry().snapshot();
    // Profile first, while the result cache is still cold: the dumped
    // span tree must show the full conceptual -> Moa -> MIL pipeline
    // (CI asserts `conceptual:select_events` in the shape), not the
    // single `cache:result` leaf a warm profile reports. The replay
    // below then exercises the hit path, which the counter rows show.
    let profile = match vdbms.run("bench", "PROFILE RETRIEVE HIGHLIGHTS") {
        Ok(QueryOutput::Profile(p)) => p,
        _ => panic!("PROFILE must return a profile"),
    };
    for _ in 0..REPS {
        for q in [
            "RETRIEVE HIGHLIGHTS",
            "RETRIEVE EXCITED",
            "RETRIEVE PITSTOPS",
        ] {
            vdbms.query("bench", q).expect("query answers");
        }
    }
    let metrics = vdbms
        .kernel()
        .metrics()
        .registry()
        .snapshot()
        .delta(&before);

    let mut table = Table::new(
        &format!(
            "Observability — query-path metrics after {REPS}x3 retrievals ({CLIPS}-clip catalog video)"
        ),
        &["series", "count", "p50 us", "p95 us", "p99 us"],
    );
    let us = |ns: u64| ns as f64 / 1e3;
    let mut hist_row = |name: &str, labels: &[(&str, &str)]| {
        if let Some(h) = metrics.histogram(name, labels) {
            table.row(vec![
                Cell::Text(cobra_obs::MetricKey::new(name, labels).render()),
                Cell::Num(h.count() as f64),
                Cell::Num(us(h.p50())),
                Cell::Num(us(h.p95())),
                Cell::Num(us(h.p99())),
            ]);
        }
    };
    hist_row("mil.eval_ns", &[]);
    for op in ["select", "mirror", "join"] {
        hist_row("mil.op_ns", &[("op", op)]);
    }
    for (label, name, labels) in [
        ("mil.evals", "mil.evals", &[][..]),
        ("mil.ticks", "mil.ticks", &[]),
        (
            "index cache hits",
            "kernel.index_cache",
            &[("result", "hit")],
        ),
        (
            "index cache misses",
            "kernel.index_cache",
            &[("result", "miss")],
        ),
        ("result cache hits", "cache.result", &[("result", "hit")]),
        ("result cache misses", "cache.result", &[("result", "miss")]),
    ] {
        table.row(vec![
            Cell::Text(label.into()),
            Cell::Num(metrics.counter(name, labels) as f64),
            Cell::Empty,
            Cell::Empty,
            Cell::Empty,
        ]);
    }

    let doc = serde_json::json!({
        "experiment": "obs_metrics",
        "clips": (CLIPS as f64),
        "reps": (REPS as f64),
        "metrics": (metrics.to_json()),
        "profile_shape": (profile.span.shape()),
        "profile": (profile.span.to_json()),
    });
    (table, doc)
}

/// **Columnar kernel** — vectorized operators vs the naive atom-at-a-time
/// reference, on the join/select/group shapes the paper's queries compile
/// into. Returns the human-readable table plus a machine-readable JSON
/// document (written to `BENCH_monet.json` by the experiments binary and
/// validated by CI).
pub fn monet() -> (Table, serde_json::Value) {
    use f1_monet::ops::{self, naive, Aggregate, OpCtx};
    use f1_monet::prelude::*;

    fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        best
    }

    const ROWS: usize = 100_000;
    let fact =
        Bat::from_tail(AtomType::Int, (0..ROWS as i64).map(|v| Atom::Int(v % 1000))).unwrap();
    let dim = Bat::from_pairs(
        AtomType::Int,
        AtomType::Str,
        (0..1000).map(|v| (Atom::Int(v), Atom::str(format!("d{v}")))),
    )
    .unwrap();
    let groups = Bat::from_pairs(
        AtomType::Oid,
        AtomType::Oid,
        (0..ROWS as u64).map(|i| (Atom::Oid(i), Atom::Oid(i % 64))),
    )
    .unwrap();
    let (lo, hi) = (Atom::Int(100), Atom::Int(400));

    // Result identity first — a benchmark of a wrong answer means nothing.
    assert_eq!(
        ops::select_range(&fact, &lo, &hi),
        naive::select_range(&fact, &lo, &hi)
    );
    assert_eq!(ops::join(&fact, &dim), naive::join(&fact, &dim));
    assert_eq!(
        ops::grouped_aggregate(&fact, &groups, Aggregate::Sum).unwrap(),
        naive::grouped_aggregate(&fact, &groups, Aggregate::Sum).unwrap()
    );

    let idx = ColumnIndex::build(dim.head()).expect("dim head is materialized");
    let reps = 5;
    let t2 = OpCtx::with_threads(2);

    let mut measured: Vec<(&str, f64, f64, f64)> = Vec::new(); // (op, naive, vec, vec_t2)
    measured.push((
        "select_range",
        time_ms(reps, || {
            naive::select_range(&fact, &lo, &hi);
        }),
        time_ms(reps, || {
            ops::select_range(&fact, &lo, &hi);
        }),
        time_ms(reps, || {
            ops::select_range_ctx(&fact, &lo, &hi, &t2).unwrap();
        }),
    ));
    measured.push((
        "join",
        time_ms(reps, || {
            naive::join(&fact, &dim);
        }),
        time_ms(reps, || {
            ops::join_ctx(&fact, &dim, Some(&idx), &OpCtx::default()).unwrap();
        }),
        time_ms(reps, || {
            ops::join_ctx(&fact, &dim, Some(&idx), &t2).unwrap();
        }),
    ));
    measured.push((
        "grouped_aggregate",
        time_ms(reps, || {
            naive::grouped_aggregate(&fact, &groups, Aggregate::Sum).unwrap();
        }),
        time_ms(reps, || {
            ops::grouped_aggregate(&fact, &groups, Aggregate::Sum).unwrap();
        }),
        time_ms(reps, || {
            ops::grouped_aggregate_ctx(&fact, &groups, Aggregate::Sum, &t2).unwrap();
        }),
    ));

    let mut table = Table::new(
        &format!("Columnar kernel — vectorized vs naive operators ({ROWS} rows)"),
        &[
            "operator",
            "naive ms",
            "vectorized ms",
            "2 threads ms",
            "speedup",
        ],
    );
    let mut ops_json: Vec<serde_json::Value> = Vec::new();
    let mut max_speedup = 0.0f64;
    for &(op, naive_ms, vec_ms, t2_ms) in &measured {
        let speedup = naive_ms / vec_ms;
        max_speedup = max_speedup.max(speedup);
        table.row(vec![
            Cell::Text(op.into()),
            Cell::Num(naive_ms),
            Cell::Num(vec_ms),
            Cell::Num(t2_ms),
            Cell::Text(format!("{speedup:.1}x")),
        ]);
        ops_json.push(serde_json::json!({
            "op": op,
            "rows": ROWS,
            "naive_ms": naive_ms,
            "vectorized_ms": vec_ms,
            "vectorized_t2_ms": t2_ms,
            "speedup": speedup,
        }));
    }
    let doc = serde_json::json!({
        "experiment": "monet_columnar_kernel",
        "rows": ROWS,
        "ops": ops_json,
        "max_speedup": max_speedup,
    });
    (table, doc)
}

/// **Serving layer** — the cobra-serve load test: a closed-loop client
/// fleet against a live TCP server over the catalog-only fixture, in
/// two regimes. *At the admission limit* every request must succeed;
/// at *twice* the limit the excess must surface as typed `overloaded`
/// rejections — never hangs, errors or worker panics. A third section
/// sweeps the *connection* axis: a mostly-idle population ramped to
/// 4096 held connections while an 8-client active core keeps querying,
/// reporting per-level RSS — near-flat per-idle-connection memory is
/// the reactor's claim (a thread-per-connection server pays two stacks
/// per connection and falls over well before 4096). Returns the
/// human-readable table plus the JSON document `BENCH_serve.json`
/// (schema-validated by the CI serve smoke job).
pub fn serve() -> (Table, serde_json::Value) {
    use cobra_serve::load::{connection_sweep, run as run_load, LoadConfig};
    use cobra_serve::server::{start, ServerConfig};
    use f1_cobra::catalog::{EventRecord, VideoInfo};
    use f1_cobra::Vdbms;
    use std::sync::Arc;

    const CLIPS: usize = 600;
    const WORKERS: usize = 8;
    const QUEUE_CAP: usize = 32;
    const REQUESTS_PER_CLIENT: usize = 50;

    // Same catalog-only fixture as the obs experiment: the numbers
    // isolate protocol + scheduling + query path, not media synthesis.
    let vdbms = Arc::new(Vdbms::new());
    vdbms
        .catalog
        .register_video(VideoInfo {
            name: "bench".into(),
            n_clips: CLIPS,
            n_frames: CLIPS * VIDEO_FPS / clips_per_second(),
        })
        .expect("register bench video");
    let events: Vec<EventRecord> = (0..CLIPS / 3)
        .map(|i| EventRecord {
            kind: match i % 3 {
                0 => "highlight",
                1 => "excited",
                _ => "caption:pit_stop",
            }
            .into(),
            start: i * 3,
            end: i * 3 + 2,
            driver: (i % 4 == 0).then(|| "SCHUMACHER".to_string()),
        })
        .collect();
    vdbms
        .catalog
        .store_events("bench", &events)
        .expect("catalog accepts events");

    let handle = start(
        Arc::clone(&vdbms),
        ServerConfig {
            workers: WORKERS,
            queue_cap: QUEUE_CAP,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let admission_limit = handle.admission_limit();

    let queries = vec![
        "RETRIEVE HIGHLIGHTS".to_string(),
        "RETRIEVE EXCITED".to_string(),
        "RETRIEVE PITSTOPS".to_string(),
        "PROFILE RETRIEVE HIGHLIGHTS".to_string(),
    ];
    let regime = |clients: usize| LoadConfig {
        clients,
        requests_per_client: REQUESTS_PER_CLIENT,
        video: "bench".into(),
        queries: queries.clone(),
        deadline_ms: None,
        // All-cold traffic: each request carries a distinct driver
        // variant, so the result cache and single-flight coalescing
        // stay out of the picture and both regimes keep measuring the
        // scheduler + admission control (the cache experiment measures
        // the hot side).
        distinct: 50_000,
        zipf: None,
        seed: 0,
        arrival_rps: None,
    };

    // Regime A: 32 concurrent clients, below the admission limit —
    // closed-loop, so in-flight requests never exceed the client count
    // and nothing may be rejected.
    assert!(admission_limit >= 32, "load test assumes a limit of >= 32");
    let at_limit = run_load(handle.addr(), &regime(32));
    // Regime B: twice the admission limit — the excess must be shed as
    // typed `overloaded` rejections, all other answers staying intact.
    let over_limit = run_load(handle.addr(), &regime(2 * admission_limit));

    // Connection sweep: ramp a mostly-idle population to 4096 held
    // connections while a small active core keeps the query path warm.
    // The fd ceiling covers 4096 idle + active + server-side fds.
    let _ = cobra_serve::raise_nofile_limit(16_384);
    let mut active = regime(8);
    active.requests_per_client = 25;
    let sweep = connection_sweep(handle.addr(), &[64, 512, 4096], &active);
    handle.shutdown();

    let mut table = Table::new(
        &format!(
            "Serving — closed-loop load vs cobra-serve \
             ({WORKERS} workers, queue {QUEUE_CAP}, admission limit {admission_limit})"
        ),
        &[
            "regime", "clients", "ok", "overload", "deadline", "errors", "rps", "p50 us", "p95 us",
            "p99 us",
        ],
    );
    for (name, report) in [("at limit", &at_limit), ("2x limit", &over_limit)] {
        let j = report.to_json();
        let p = |k: &str| {
            j.get("latency_us")
                .and_then(|l| l.get(k))
                .and_then(serde_json::Value::as_f64)
                .unwrap_or(0.0)
        };
        table.row(vec![
            Cell::Text(name.into()),
            Cell::Num(report.clients as f64),
            Cell::Num(report.ok as f64),
            Cell::Num(report.overloaded as f64),
            Cell::Num(report.deadline as f64),
            Cell::Num(report.errors as f64),
            Cell::Num(report.throughput_rps()),
            Cell::Num(p("p50")),
            Cell::Num(p("p95")),
            Cell::Num(p("p99")),
        ]);
    }
    if let Some(levels) = sweep.get("levels").and_then(serde_json::Value::as_array) {
        for level in levels {
            let g = |k: &str| {
                level
                    .get(k)
                    .and_then(serde_json::Value::as_f64)
                    .unwrap_or(0.0)
            };
            let a = |k: &str| {
                level
                    .get("active")
                    .and_then(|a| a.get(k))
                    .and_then(serde_json::Value::as_f64)
                    .unwrap_or(0.0)
            };
            let lat = |k: &str| {
                level
                    .get("active")
                    .and_then(|a| a.get("latency_us"))
                    .and_then(|l| l.get(k))
                    .and_then(serde_json::Value::as_f64)
                    .unwrap_or(0.0)
            };
            table.row(vec![
                Cell::Text(format!(
                    "{} idle ({:.1} KB/conn)",
                    g("connections"),
                    g("rss_per_idle_conn_bytes") / 1024.0
                )),
                Cell::Num(a("clients")),
                Cell::Num(a("ok")),
                Cell::Num(a("overloaded")),
                Cell::Num(a("deadline")),
                Cell::Num(a("errors")),
                Cell::Num(a("throughput_rps")),
                Cell::Num(lat("p50")),
                Cell::Num(lat("p95")),
                Cell::Num(lat("p99")),
            ]);
        }
    }

    let doc = serde_json::json!({
        "experiment": "serve_load",
        "config": {
            "workers": (WORKERS as f64),
            "queue_cap": (QUEUE_CAP as f64),
            "admission_limit": (admission_limit as f64),
            "requests_per_client": (REQUESTS_PER_CLIENT as f64),
            "queries": (queries),
        },
        "regimes": {
            "at_limit": (at_limit.to_json()),
            "over_limit": (over_limit.to_json()),
        },
        "connection_sweep": (sweep),
    });
    (table, doc)
}

/// **Query caching** — the multi-level cache measured end to end.
/// Embedded: per-query cold vs warm latency through the plan + result
/// caches, a driver variant that hits the plan cache but misses the
/// result cache, and the forced re-execution after a write invalidates
/// the cached entry. Served: the 2x-admission-limit regime from the
/// serve experiment, once with all-distinct (cold) traffic and once
/// with a hot three-query mix where the result cache and single-flight
/// coalescing absorb the load. Returns the human-readable table plus
/// the JSON document `BENCH_cache.json` (schema-validated by CI).
pub fn cache() -> (Table, serde_json::Value) {
    use cobra_serve::load::{run as run_load, LoadConfig, LoadReport};
    use cobra_serve::server::{start, ServerConfig};
    use f1_cobra::catalog::{EventRecord, VideoInfo};
    use f1_cobra::Vdbms;
    use std::sync::Arc;

    const CLIPS: usize = 600;
    const WARM_REPS: usize = 50;
    const WORKERS: usize = 8;
    const QUEUE_CAP: usize = 32;
    const REQUESTS_PER_CLIENT: usize = 50;

    // Same catalog-only fixture as the obs and serve experiments.
    let fixture_events = || -> Vec<EventRecord> {
        (0..CLIPS / 3)
            .map(|i| EventRecord {
                kind: match i % 3 {
                    0 => "highlight",
                    1 => "excited",
                    _ => "caption:pit_stop",
                }
                .into(),
                start: i * 3,
                end: i * 3 + 2,
                driver: (i % 4 == 0).then(|| "SCHUMACHER".to_string()),
            })
            .collect()
    };
    let fixture = || -> Arc<Vdbms> {
        let vdbms = Arc::new(Vdbms::new());
        vdbms
            .catalog
            .register_video(VideoInfo {
                name: "bench".into(),
                n_clips: CLIPS,
                n_frames: CLIPS * VIDEO_FPS / clips_per_second(),
            })
            .expect("register bench video");
        vdbms
            .catalog
            .store_events("bench", &fixture_events())
            .expect("catalog accepts events");
        vdbms
    };
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;

    // Embedded regime: first execution pays the full conceptual ->
    // Moa -> MIL cost; repeats must come out of the result cache.
    let vdbms = fixture();
    let registry = Arc::clone(vdbms.kernel().metrics().registry());
    let before = registry.snapshot();
    let mut per_query: Vec<(&str, f64, f64)> = Vec::new();
    for q in [
        "RETRIEVE HIGHLIGHTS",
        "RETRIEVE EXCITED",
        "RETRIEVE PITSTOPS",
    ] {
        let t = Instant::now();
        let cold_rows = vdbms.query("bench", q).expect("cold query answers");
        let cold_us = us(t);
        let mut warm_us = f64::INFINITY;
        for _ in 0..WARM_REPS {
            let t = Instant::now();
            let warm_rows = vdbms.query("bench", q).expect("warm query answers");
            warm_us = warm_us.min(us(t));
            assert_eq!(cold_rows, warm_rows, "a cache hit must answer identically");
        }
        per_query.push((q, cold_us, warm_us));
    }

    // A driver variant misses the result cache (different normalized
    // text) but reuses the compiled plan for its kind.
    let t = Instant::now();
    vdbms
        .query("bench", "RETRIEVE HIGHLIGHTS WITH DRIVER \"SCHUMACHER\"")
        .expect("variant answers");
    let variant_us = us(t);

    // A write between two identical queries must invalidate: the event
    // layer's version vector moved, so the repeat re-executes and
    // observes the appended highlight instead of the cached answer.
    let baseline = vdbms
        .query("bench", "RETRIEVE HIGHLIGHTS")
        .expect("warm query answers");
    vdbms
        .catalog
        .store_events(
            "bench",
            &[EventRecord {
                kind: "highlight".into(),
                start: CLIPS - 3,
                end: CLIPS - 1,
                driver: None,
            }],
        )
        .expect("catalog accepts the extra event");
    let t = Instant::now();
    let after_write = vdbms
        .query("bench", "RETRIEVE HIGHLIGHTS")
        .expect("post-write query answers");
    let post_write_us = us(t);
    assert_ne!(baseline, after_write, "the write must be visible");

    let delta = registry.snapshot().delta(&before);
    let plan_hits = delta.counter("cache.plan", &[("result", "hit")]);
    let plan_misses = delta.counter("cache.plan", &[("result", "miss")]);
    let result_hits = delta.counter("cache.result", &[("result", "hit")]);
    let result_misses = delta.counter("cache.result", &[("result", "miss")]);
    let invalidated = delta.counter("cache.result", &[("result", "invalidated")]);
    assert!(plan_hits >= 1, "the driver variant must hit the plan cache");
    assert!(invalidated >= 1, "the write must invalidate the cache");

    // Served regime: twice the admission limit, cold vs hot traffic
    // against a fresh server (so the hot run's first executions are the
    // only misses it pays).
    let serve_vdbms = fixture();
    let serve_registry = Arc::clone(serve_vdbms.kernel().metrics().registry());
    let handle = start(
        Arc::clone(&serve_vdbms),
        ServerConfig {
            workers: WORKERS,
            queue_cap: QUEUE_CAP,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let admission_limit = handle.admission_limit();
    let clients = 2 * admission_limit;
    let base = LoadConfig {
        clients,
        requests_per_client: REQUESTS_PER_CLIENT,
        video: "bench".into(),
        queries: vec![
            "RETRIEVE HIGHLIGHTS".to_string(),
            "RETRIEVE EXCITED".to_string(),
            "RETRIEVE PITSTOPS".to_string(),
        ],
        deadline_ms: None,
        distinct: 0,
        zipf: None,
        seed: 0,
        arrival_rps: None,
    };
    let regime_delta = |snap: &cobra_obs::Snapshot| {
        let d = serve_registry.snapshot().delta(snap);
        (
            d.counter("cache.coalesced", &[]),
            d.counter("cache.result", &[("result", "hit")]),
        )
    };

    // Cold: every request is a distinct normalized query — no result
    // hits, no coalescing. This is the PR-4 over-limit regime.
    let snap = serve_registry.snapshot();
    let cold = run_load(
        handle.addr(),
        &LoadConfig {
            distinct: 50_000,
            ..base.clone()
        },
    );
    let (cold_coalesced, cold_hits) = regime_delta(&snap);

    // Hot: the three-query mix cycled verbatim — after the first
    // executions every answer is a result hit, and concurrent identical
    // requests coalesce onto in-flight leaders instead of competing for
    // admission slots.
    let snap = serve_registry.snapshot();
    let hot = run_load(handle.addr(), &base.clone());
    let (hot_coalesced, hot_hits) = regime_delta(&snap);
    handle.shutdown();

    let mut table = Table::new(
        &format!(
            "Query caching — cold vs warm retrievals and 2x-limit serve regimes \
             ({CLIPS}-clip catalog video, {WORKERS} workers, queue {QUEUE_CAP})"
        ),
        &["measurement", "cold", "warm", "ratio"],
    );
    for (q, cold_us, warm_us) in &per_query {
        table.row(vec![
            Cell::Text(format!("{q} (us)")),
            Cell::Num(*cold_us),
            Cell::Num(*warm_us),
            Cell::Num(cold_us / warm_us),
        ]);
    }
    table.row(vec![
        Cell::Text("plan hit, result miss (us)".into()),
        Cell::Num(variant_us),
        Cell::Empty,
        Cell::Empty,
    ]);
    table.row(vec![
        Cell::Text("post-write re-execution (us)".into()),
        Cell::Num(post_write_us),
        Cell::Empty,
        Cell::Empty,
    ]);
    table.row(vec![
        Cell::Text("serve 2x limit ok (goodput)".into()),
        Cell::Num(cold.ok as f64),
        Cell::Num(hot.ok as f64),
        Cell::Num(hot.ok as f64 / (cold.ok as f64).max(1.0)),
    ]);
    table.row(vec![
        Cell::Text("serve 2x limit (rps)".into()),
        Cell::Num(cold.throughput_rps()),
        Cell::Num(hot.throughput_rps()),
        Cell::Empty,
    ]);
    table.row(vec![
        Cell::Text("serve 2x limit overloaded".into()),
        Cell::Num(cold.overloaded as f64),
        Cell::Num(hot.overloaded as f64),
        Cell::Empty,
    ]);
    table.row(vec![
        Cell::Text("serve coalesced requests".into()),
        Cell::Num(cold_coalesced as f64),
        Cell::Num(hot_coalesced as f64),
        Cell::Empty,
    ]);

    let min_speedup = per_query
        .iter()
        .map(|(_, c, w)| c / w)
        .fold(f64::INFINITY, f64::min);
    let regime_json = |report: &LoadReport, coalesced: u64, hits: u64| {
        let mut j = report.to_json();
        if let serde_json::Value::Object(map) = &mut j {
            map.insert(
                "coalesced".to_string(),
                serde_json::Value::Number(coalesced as f64),
            );
            map.insert(
                "cache_hits".to_string(),
                serde_json::Value::Number(hits as f64),
            );
        }
        j
    };
    let doc = serde_json::json!({
        "experiment": "query_cache",
        "clips": (CLIPS as f64),
        "warm_reps": (WARM_REPS as f64),
        "queries": (per_query
            .iter()
            .map(|(q, c, w)| serde_json::json!({
                "query": (*q),
                "cold_us": (*c),
                "warm_us": (*w),
                "speedup": (c / w),
            }))
            .collect::<Vec<_>>()),
        "min_speedup": (min_speedup),
        "plan_hit_us": (variant_us),
        "post_write_us": (post_write_us),
        "metrics": {
            "plan_hits": (plan_hits as f64),
            "plan_misses": (plan_misses as f64),
            "result_hits": (result_hits as f64),
            "result_misses": (result_misses as f64),
            "result_invalidated": (invalidated as f64),
        },
        "serve": {
            "config": {
                "workers": (WORKERS as f64),
                "queue_cap": (QUEUE_CAP as f64),
                "admission_limit": (admission_limit as f64),
                "clients": (clients as f64),
                "requests_per_client": (REQUESTS_PER_CLIENT as f64),
            },
            "cold": (regime_json(&cold, cold_coalesced, cold_hits)),
            "hot": (regime_json(&hot, hot_coalesced, hot_hits)),
            // Goodput, not raw rps: the cold regime "finishes" fast by
            // shedding most of the offered load as typed rejections,
            // while the hot regime answers everything — so completed
            // requests is the cross-regime comparison that holds on
            // any core count.
            "goodput_gain": (hot.ok as f64 / (cold.ok as f64).max(1.0)),
        },
    });
    (table, doc)
}

/// **WAL bench** — what durability costs and what recovery buys: per-op
/// ingest overhead of the durable backend against the in-memory one
/// (under both fsync policies), recovery time as a function of WAL
/// length, and the cost of cutting a checkpoint.
pub fn wal() -> (Table, serde_json::Value) {
    use f1_cobra::catalog::{EventRecord, VideoInfo};
    use f1_cobra::{FsyncPolicy, StoreConfig, Vdbms};
    use std::path::{Path, PathBuf};

    const OPS: usize = 256;
    const CLIPS: usize = 400;

    /// A scratch data dir per regime, removed on drop.
    struct Scratch(PathBuf);
    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir =
                std::env::temp_dir().join(format!("cobra-walbench-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Scratch(dir)
        }
    }
    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    // Manual checkpoints only: the bench owns the log length.
    let config = |dir: &Path, fsync: FsyncPolicy| StoreConfig {
        fsync,
        checkpoint_every: 0,
        ..StoreConfig::new(dir)
    };
    let register = |vdbms: &Vdbms| {
        vdbms
            .catalog
            .register_video(VideoInfo {
                name: "bench".into(),
                n_clips: CLIPS,
                n_frames: CLIPS * VIDEO_FPS / clips_per_second(),
            })
            .expect("register bench video");
    };
    let event = |i: usize| EventRecord {
        kind: if i.is_multiple_of(2) {
            "highlight"
        } else {
            "excited"
        }
        .into(),
        start: i % CLIPS,
        end: i % CLIPS + 1,
        driver: i.is_multiple_of(4).then(|| "SCHUMACHER".to_string()),
    };
    let ingest = |vdbms: &Vdbms, n: usize| -> f64 {
        let t = Instant::now();
        for i in 0..n {
            vdbms
                .catalog
                .store_events("bench", &[event(i)])
                .expect("catalog accepts events");
        }
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    };

    // Ingest overhead: the identical mutation stream against each
    // backend. Memory is the floor the durable regimes are judged by.
    let mem = Vdbms::new();
    register(&mem);
    let mem_us = ingest(&mem, OPS);
    drop(mem);

    let mut regimes: Vec<(&str, f64, u64, u64)> = vec![("memory", mem_us, 0, 0)];
    for (tag, label, fsync) in [
        ("always", "durable fsync=always", FsyncPolicy::Always),
        (
            "batched",
            "durable fsync=every(32)",
            FsyncPolicy::EveryN(32),
        ),
    ] {
        let scratch = Scratch::new(tag);
        let vdbms = Vdbms::open(&config(&scratch.0, fsync)).expect("durable vdbms boots");
        register(&vdbms);
        let us = ingest(&vdbms, OPS);
        let stats = vdbms.store_stats();
        regimes.push((label, us, stats.wal_bytes, stats.wal_fsyncs));
    }

    // Recovery time vs WAL length: crash (drop without checkpoint)
    // after n acknowledged mutations, then time the recovering boot.
    let scratch = Scratch::new("recovery");
    let mut recovery: Vec<(usize, f64, u64)> = Vec::new();
    for &n in &[64usize, 256, 1024] {
        let _ = std::fs::remove_dir_all(&scratch.0);
        {
            let vdbms = Vdbms::open(&config(&scratch.0, FsyncPolicy::EveryN(64)))
                .expect("durable vdbms boots");
            register(&vdbms);
            ingest(&vdbms, n);
            vdbms.flush().expect("wal flush");
        }
        let t = Instant::now();
        let vdbms =
            Vdbms::open(&config(&scratch.0, FsyncPolicy::EveryN(64))).expect("recovering boot");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let rec = vdbms
            .recovery_report()
            .expect("durable boot reports recovery");
        assert!(
            rec.replayed >= n as u64,
            "every acknowledged mutation must be replayed"
        );
        recovery.push((n, ms, rec.replayed));
    }

    // Checkpoint cost on the longest log, with a dirty feature BAT so
    // the snapshot writes real payload — then prove the next boot
    // replays nothing because the snapshot covers the log.
    let vdbms =
        Vdbms::open(&config(&scratch.0, FsyncPolicy::EveryN(64))).expect("durable vdbms boots");
    let features: Vec<Vec<f64>> = (0..CLIPS)
        .map(|t| vec![t as f64 * 0.5, -(t as f64)])
        .collect();
    vdbms
        .catalog
        .store_features("bench", &features)
        .expect("catalog accepts features");
    let t = Instant::now();
    let outcome = vdbms
        .checkpoint()
        .expect("checkpoint succeeds")
        .expect("the durable backend checkpoints");
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(vdbms);
    let t = Instant::now();
    let rebooted = Vdbms::open(&config(&scratch.0, FsyncPolicy::EveryN(64))).expect("clean boot");
    let clean_boot_ms = t.elapsed().as_secs_f64() * 1e3;
    let clean = rebooted.recovery_report().expect("recovery report").clone();
    assert_eq!(clean.replayed, 0, "a fresh checkpoint must cover the log");
    drop(rebooted);

    let mut table = Table::new(
        "WAL — durability overhead, recovery time, checkpoint cost",
        &["Regime", "Ingest (us/op)", "WAL bytes", "fsyncs"],
    );
    for (label, us, bytes, fsyncs) in &regimes {
        table.row(vec![
            Cell::Text((*label).into()),
            Cell::Num((us * 10.0).round() / 10.0),
            Cell::Num(*bytes as f64),
            Cell::Num(*fsyncs as f64),
        ]);
    }
    for (n, ms, replayed) in &recovery {
        table.row(vec![
            Cell::Text(format!("recovery of {n} records")),
            Cell::Num((ms * 100.0).round() / 100.0),
            Cell::Num(*replayed as f64),
            Cell::Empty,
        ]);
    }
    table.row(vec![
        Cell::Text("checkpoint (ms / BATs / bytes)".into()),
        Cell::Num((checkpoint_ms * 100.0).round() / 100.0),
        Cell::Num(outcome.bats_written as f64),
        Cell::Num(outcome.bytes_written as f64),
    ]);

    let doc = serde_json::json!({
        "experiment": "wal",
        "ops": (OPS as f64),
        "clips": (CLIPS as f64),
        "ingest": (regimes
            .iter()
            .map(|(label, us, bytes, fsyncs)| serde_json::json!({
                "regime": (*label),
                "us_per_op": (*us),
                "wal_bytes": (*bytes as f64),
                "wal_fsyncs": (*fsyncs as f64),
            }))
            .collect::<Vec<_>>()),
        "recovery": (recovery
            .iter()
            .map(|(n, ms, replayed)| serde_json::json!({
                "records": (*n as f64),
                "open_ms": (*ms),
                "replayed": (*replayed as f64),
            }))
            .collect::<Vec<_>>()),
        "checkpoint": {
            "ms": (checkpoint_ms),
            "bats_written": (outcome.bats_written as f64),
            "bats_skipped": (outcome.bats_skipped as f64),
            "bytes_written": (outcome.bytes_written as f64),
            "wal_files_retired": (outcome.wal_files_retired as f64),
            "clean_boot_ms": (clean_boot_ms),
            "clean_boot_replayed": (clean.replayed as f64),
        },
    });
    (table, doc)
}

/// **Cost-based optimizer** — fixed-rewrite vs cost-based plans per
/// query shape, on the kernel directly: the same Moa expression is
/// compiled both ways and timed end-to-end through the MIL interpreter.
/// Shapes where the coster finds a cheaper equivalent plan (predicate
/// reordering, join reassociation) must win; shapes already optimal
/// must not regress. Also proves plan-cache regeneration: advancing the
/// cost-model generation forces a replan (a plan-cache miss) on the
/// next lookup while answers stay identical. Returns the table plus the
/// JSON document `BENCH_opt.json` (schema- and bounds-validated by CI).
pub fn optimizer() -> (Table, serde_json::Value) {
    use f1_cobra::catalog::{EventRecord, VideoInfo};
    use f1_cobra::Vdbms;
    use f1_moa::{compile, optimize, plan, MoaExpr, PlannerConfig, Predicate};
    use f1_monet::prelude::*;

    fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
        }
        best
    }

    const ROWS: usize = 100_000;
    let kernel = Kernel::new();
    // Wide-spread int column: a broad range predicate keeps ~90%, the
    // equality predicate ~1/50k — the written order is pessimal.
    kernel
        .register_bat(
            "opt_fact",
            Bat::from_tail(
                AtomType::Int,
                (0..ROWS as i64).map(|v| Atom::Int(v % 50_000)),
            )
            .unwrap(),
        )
        .unwrap();
    // Low-cardinality string column, the event-kind shape.
    kernel
        .register_bat(
            "opt_kind",
            Bat::from_tail(
                AtomType::Str,
                (0..ROWS as i64).map(|v| {
                    Atom::str(["highlight", "excited", "pit_stop", "fly_out"][v as usize % 4])
                }),
            )
            .unwrap(),
        )
        .unwrap();
    // Join chain: tiny probe `opt_a`, huge middle `opt_b`, small `opt_c`.
    kernel
        .register_bat(
            "opt_a",
            Bat::from_pairs(
                AtomType::Int,
                AtomType::Int,
                (0..100i64).map(|i| (Atom::Int(i), Atom::Int(i * 997 % ROWS as i64))),
            )
            .unwrap(),
        )
        .unwrap();
    kernel
        .register_bat(
            "opt_b",
            Bat::from_pairs(
                AtomType::Int,
                AtomType::Int,
                (0..ROWS as i64).map(|i| (Atom::Int(i), Atom::Int(i % 1000))),
            )
            .unwrap(),
        )
        .unwrap();
    kernel
        .register_bat(
            "opt_c",
            Bat::from_pairs(
                AtomType::Int,
                AtomType::Int,
                (0..1000i64).map(|i| (Atom::Int(i), Atom::Int(i))),
            )
            .unwrap(),
        )
        .unwrap();

    let shapes: Vec<(&str, MoaExpr)> = vec![
        (
            // Pessimal written order: wide range first, rare equality last.
            "stacked_selects",
            MoaExpr::collection("opt_fact")
                .select(Predicate::Range(Atom::Int(0), Atom::Int(45_000)))
                .select(Predicate::Eq(Atom::Int(7))),
        ),
        (
            // Single equality on the kind column: already optimal, the
            // cost-based plan must match the fixed rewrite exactly.
            "event_kind_eq",
            MoaExpr::collection("opt_kind").select(Predicate::Eq(Atom::str("pit_stop"))),
        ),
        (
            // Right-deep join chain materializes a 100k-row intermediate;
            // the left-deep association probes 100 rows through both.
            "join_chain",
            MoaExpr::collection("opt_a")
                .join(MoaExpr::collection("opt_b").join(MoaExpr::collection("opt_c"))),
        ),
    ];

    let reps = 5;
    let collections = ["opt_fact", "opt_kind", "opt_a", "opt_b", "opt_c"];
    let mut table = Table::new(
        &format!("Cost-based optimizer — fixed rewrite vs chosen plan ({ROWS} rows)"),
        &["shape", "fixed ms", "cost-based ms", "speedup", "replanned"],
    );
    let mut shapes_json: Vec<serde_json::Value> = Vec::new();
    for (name, expr) in shapes {
        let fixed_mil = format!("RETURN {};", compile(&optimize(expr.clone())));
        // Warm up: measured per-opcode costs, sketches, and the head
        // index caches, exactly what a running system would have.
        for _ in 0..2 {
            kernel.eval_mil(&fixed_mil).unwrap();
        }
        let stats = kernel.plan_stats(&collections);
        let choice = plan(expr, &stats, &PlannerConfig::default());
        let chosen_mil = format!("{}RETURN {};", choice.mil_prefix(), choice.mil());
        assert_eq!(
            kernel.eval_mil(&fixed_mil).unwrap(),
            kernel.eval_mil(&chosen_mil).unwrap(),
            "{name}: plans must be result-identical"
        );
        let fixed_ms = time_ms(reps, || {
            kernel.eval_mil(&fixed_mil).unwrap();
        });
        let cost_based_ms = time_ms(reps, || {
            kernel.eval_mil(&chosen_mil).unwrap();
        });
        let speedup = fixed_ms / cost_based_ms;
        table.row(vec![
            Cell::Text(name.into()),
            Cell::Num(fixed_ms),
            Cell::Num(cost_based_ms),
            Cell::Text(format!("{speedup:.1}x")),
            Cell::Text(choice.reordered().to_string()),
        ]);
        shapes_json.push(serde_json::json!({
            "shape": name,
            "rows": ROWS,
            "fixed_ms": fixed_ms,
            "cost_based_ms": cost_based_ms,
            "speedup": speedup,
            "reordered": (choice.reordered()),
            "threads": (choice.threads as f64),
            "est_fixed_ns": (choice.baseline_cost),
            "est_chosen_ns": (choice.chosen_cost),
        }));
    }

    // Plan-cache regeneration on new costs, through the full VDBMS: a
    // cost-model refresh advances the generation, orphans the cached
    // plan, and the next execution replans (a plan-cache miss) while
    // returning the identical answer.
    let vdbms = Vdbms::new();
    vdbms
        .catalog
        .register_video(VideoInfo {
            name: "opt".into(),
            n_clips: 100,
            n_frames: 100 * VIDEO_FPS / clips_per_second(),
        })
        .expect("register bench video");
    vdbms
        .catalog
        .store_events(
            "opt",
            &(0..32)
                .map(|i| EventRecord {
                    kind: "highlight".into(),
                    start: i * 3,
                    end: i * 3 + 2,
                    driver: None,
                })
                .collect::<Vec<_>>(),
        )
        .expect("store bench events");
    let plan_misses = |v: &Vdbms| {
        v.kernel()
            .metrics()
            .registry()
            .snapshot()
            .counter("cache.plan", &[("result", "miss")])
    };
    let before = vdbms.query("opt", "RETRIEVE HIGHLIGHTS").unwrap();
    let misses_cold = plan_misses(&vdbms);
    // Same plan key, fresh result key: must hit the warm plan cache.
    vdbms
        .query("opt", "RETRIEVE HIGHLIGHTS AT PITLANE")
        .unwrap();
    let misses_warm = plan_misses(&vdbms);
    let generation_before = vdbms
        .kernel()
        .metrics()
        .registry()
        .snapshot()
        .gauge("cache.plan.generation", &[]) as u64;
    let generation_after = vdbms.refresh_plan_costs();
    vdbms
        .query("opt", "RETRIEVE HIGHLIGHTS WITH DRIVER \"SCHUMACHER\"")
        .unwrap();
    let misses_refreshed = plan_misses(&vdbms);
    let after = vdbms.query("opt", "RETRIEVE HIGHLIGHTS").unwrap();
    assert_eq!(before, after, "replanned answers must be identical");
    table.row(vec![
        Cell::Text("plan regeneration".into()),
        Cell::Num(generation_before as f64),
        Cell::Num(generation_after as f64),
        Cell::Text(format!(
            "misses {misses_cold}->{misses_warm}->{misses_refreshed}"
        )),
        Cell::Text((misses_refreshed > misses_warm).to_string()),
    ]);

    let doc = serde_json::json!({
        "experiment": "cost_based_optimizer",
        "rows": ROWS,
        "shapes": shapes_json,
        "regeneration": {
            "generation_before": (generation_before as f64),
            "generation_after": (generation_after as f64),
            "plan_misses_cold": misses_cold,
            "plan_misses_warm": misses_warm,
            "plan_misses_after_refresh": misses_refreshed,
            "replanned": (misses_refreshed > misses_warm),
        },
    });
    (table, doc)
}

/// **Sharded serving** — throughput of the scatter-gather router as the
/// same catalog is split across 1, 2 and 4 kernel worker *processes*.
/// Each topology seeds per-shard durable data dirs with the ring the
/// router routes by, spawns genuine `cobra-serve` children, and drives
/// an all-cold closed-loop mix of cross-video sweeps and single-video
/// queries through the router (result cache off, so every request
/// executes). Near-linear 1→4 scaling needs cores to scale onto; the
/// report carries the parallelism the host offered so the CI bound can
/// be honest about constrained runners. Returns the table plus the
/// JSON document `BENCH_shard.json` (schema-validated by CI).
pub fn shard() -> (Table, serde_json::Value) {
    use cobra_serve::load::{run as run_load, LoadConfig, LoadReport};
    use cobra_serve::ring::{Ring, DEFAULT_SEED};
    use cobra_serve::router::{start as start_router, RouterConfig};
    use cobra_serve::spawn::{find_worker_binary, spawn_worker, WorkerProcess};
    use f1_cobra::catalog::{EventRecord, VideoInfo};
    use f1_cobra::{FsyncPolicy, RetryPolicy, StoreConfig, Vdbms};

    const VIDEOS: usize = 8;
    const CLIPS: usize = 1200;
    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 60;
    const WORKERS_PER_SHARD: usize = 2;
    const SHARD_COUNTS: [u32; 3] = [1, 2, 4];

    let binary = find_worker_binary().expect("cobra-serve binary next to the experiments binary");

    // One run of the closed-loop mix against a freshly seeded topology.
    let run_topology = |shards: u32| -> LoadReport {
        let root =
            std::env::temp_dir().join(format!("cobra-bench-shard-{}-{shards}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let ring = Ring::new(shards, DEFAULT_SEED);

        // Seed each shard's slice durably (fsync off: seeding is not
        // the measurement), exactly as the router will partition it.
        for shard in 0..shards {
            let config = StoreConfig {
                fsync: FsyncPolicy::Never,
                ..StoreConfig::new(root.join(format!("shard-{shard}")))
            };
            let vdbms = Vdbms::open(&config).expect("seed shard data dir");
            for v in 0..VIDEOS {
                let name = format!("race-{v}");
                if ring.owner(&name) != shard {
                    continue;
                }
                vdbms
                    .catalog
                    .register_video(VideoInfo {
                        name: name.clone(),
                        n_clips: CLIPS,
                        n_frames: CLIPS * VIDEO_FPS / clips_per_second(),
                    })
                    .expect("register bench video");
                let events: Vec<EventRecord> = (0..CLIPS / 2)
                    .map(|i| EventRecord {
                        kind: match i % 3 {
                            0 => "highlight",
                            1 => "excited",
                            _ => "caption:pit_stop",
                        }
                        .into(),
                        start: i * 2,
                        end: i * 2 + 1,
                        driver: (i % 4 == 0).then(|| format!("Z{}", i % 64)),
                    })
                    .collect();
                vdbms
                    .catalog
                    .store_events(&name, &events)
                    .expect("store bench events");
            }
            vdbms.checkpoint().expect("checkpoint seed data");
        }

        let workers: Vec<WorkerProcess> = (0..shards)
            .map(|shard| {
                let args = vec![
                    "--addr".to_string(),
                    "127.0.0.1:0".to_string(),
                    "--workers".to_string(),
                    WORKERS_PER_SHARD.to_string(),
                    "--queue-cap".to_string(),
                    "64".to_string(),
                    "--data-dir".to_string(),
                    root.join(format!("shard-{shard}")).display().to_string(),
                ];
                spawn_worker(&binary, &args)
                    .unwrap_or_else(|e| panic!("spawning bench shard {shard}: {e}"))
            })
            .collect();
        let router = start_router(RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: workers.iter().map(|w| w.addr().to_string()).collect(),
            seed: DEFAULT_SEED,
            retry: RetryPolicy {
                max_retries: 2,
                backoff_ms: 25,
            },
            // All-cold by construction: every request must execute, so
            // the numbers measure scatter-gather + kernel work, not the
            // router's result cache.
            cache: false,
            ..RouterConfig::default()
        })
        .expect("start bench router");

        let report = run_load(
            router.addr(),
            &LoadConfig {
                clients: CLIENTS,
                requests_per_client: REQUESTS_PER_CLIENT,
                video: "*".into(),
                queries: vec![
                    "RETRIEVE HIGHLIGHTS".to_string(),
                    "RETRIEVE EXCITED".to_string(),
                    "RETRIEVE PITSTOPS".to_string(),
                ],
                deadline_ms: None,
                distinct: 4096,
                zipf: None,
                seed: 0,
                arrival_rps: None,
            },
        );

        router.shutdown();
        drop(workers); // SIGKILL + reap
        let _ = std::fs::remove_dir_all(&root);
        report
    };

    let reports: Vec<(u32, LoadReport)> = SHARD_COUNTS
        .iter()
        .map(|&shards| (shards, run_topology(shards)))
        .collect();

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let rps_at = |n: u32| -> f64 {
        reports
            .iter()
            .find(|(shards, _)| *shards == n)
            .map(|(_, r)| r.throughput_rps())
            .unwrap_or(0.0)
    };
    let base = rps_at(1).max(1e-9);

    let mut table = Table::new(
        &format!(
            "Sharding — cross-video sweeps through the scatter-gather router \
             ({VIDEOS} videos, {CLIENTS} clients, {WORKERS_PER_SHARD} threads/shard, \
             {cores} host cores)"
        ),
        &[
            "shards", "ok", "overload", "errors", "rps", "speedup", "p50 us", "p95 us",
        ],
    );
    for (shards, report) in &reports {
        let j = report.to_json();
        let p = |k: &str| {
            j.get("latency_us")
                .and_then(|l| l.get(k))
                .and_then(serde_json::Value::as_f64)
                .unwrap_or(0.0)
        };
        table.row(vec![
            Cell::Num(*shards as f64),
            Cell::Num(report.ok as f64),
            Cell::Num(report.overloaded as f64),
            Cell::Num(report.errors as f64),
            Cell::Num(report.throughput_rps()),
            Cell::Num(report.throughput_rps() / base),
            Cell::Num(p("p50")),
            Cell::Num(p("p95")),
        ]);
    }

    let results: Vec<serde_json::Value> = reports
        .iter()
        .map(|(shards, report)| {
            serde_json::json!({
                "shards": (*shards as f64),
                "report": (report.to_json()),
            })
        })
        .collect();
    let doc = serde_json::json!({
        "experiment": "shard",
        "config": {
            "videos": (VIDEOS as f64),
            "clips": (CLIPS as f64),
            "clients": (CLIENTS as f64),
            "requests_per_client": (REQUESTS_PER_CLIENT as f64),
            "workers_per_shard": (WORKERS_PER_SHARD as f64),
            "shard_counts": (SHARD_COUNTS.iter().map(|&n| n as f64).collect::<Vec<_>>()),
            "host_cores": (cores as f64),
        },
        "results": (results),
        "scaling": {
            "x2_vs_x1": (rps_at(2) / base),
            "x4_vs_x1": (rps_at(4) / base),
        },
    });
    (table, doc)
}

/// Live-race streaming: ingest-to-notify latency and sustained chunk
/// throughput through the `subscribe` push path (DESIGN.md §6j).
///
/// Two runs against an in-process server, each with a standing
/// `RETRIEVE PITSTOPS` subscription registered *before* the first
/// chunk arrives:
///
/// * **latency** — chunks are ingested one at a time and, whenever a
///   chunk changes the standing answer, the run blocks until the
///   subscriber's delta frame lands. Latency is commit-to-push:
///   measured from `ingest_chunk` returning (the change feed has
///   published by then) to `next_push` handing the frame over. Chunks
///   that leave the answer unchanged are counted, not timed — silence
///   is the contract there, so there is nothing to wait for. The same
///   broadcast is streamed into `ROUNDS` separate videos (each with
///   its own standing query) so the percentiles rest on more than the
///   handful of answer-changing chunks one race contains.
/// * **sustained** — every chunk is ingested back-to-back with the
///   subscriber attached but never waited on, measuring how much
///   faster than real time the incremental pipeline absorbs a
///   broadcast while the notifier keeps pushing deltas. The run then
///   drains the push stream and checks the final total matches a
///   direct query — backpressure must not have cost frames.
///
/// Returns the table plus the JSON document `BENCH_stream.json`
/// (schema-validated by CI's stream-smoke job).
pub fn stream() -> (Table, serde_json::Value) {
    use cobra_serve::client::Client;
    use cobra_serve::server::{start, ServerConfig};
    use f1_cobra::Vdbms;
    use f1_media::synth::scenario::{RaceProfile, RaceScenario, ScenarioConfig};
    use std::sync::Arc;
    use std::time::Duration;

    const SECONDS: usize = 120;
    const CHUNK_S: usize = 5;
    const ROUNDS: usize = 4;
    const QUERY: &str = "RETRIEVE PITSTOPS";
    /// Generous bound on one commit-to-push wait; the single-server
    /// notifier wakes on the change-feed condvar, so hitting this
    /// means the push path is broken, not slow.
    const PUSH_WAIT: Duration = Duration::from_secs(10);

    let scenario = RaceScenario::generate(ScenarioConfig::new(RaceProfile::German, SECONDS));
    let n_chunks = scenario.chunks(CHUNK_S).count();

    let percentile = |sorted: &[u64], p: f64| -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        sorted[((sorted.len() - 1) as f64 * p).round() as usize]
    };

    // Run 1: commit-to-push latency, one chunk at a time.
    let (latencies_us, unchanged) = {
        let vdbms = Arc::new(Vdbms::new());
        let handle = start(Arc::clone(&vdbms), ServerConfig::default()).expect("start server");
        let mut subscriber = Client::connect(handle.addr()).expect("connect subscriber");
        subscriber
            .set_timeout(Some(PUSH_WAIT))
            .expect("set push timeout");

        let mut latencies_us: Vec<u64> = Vec::new();
        let mut unchanged = 0usize;
        for round in 0..ROUNDS {
            let video = format!("race-{round}");
            subscriber.subscribe(&video, QUERY).expect("subscribe");
            let mut last_total = 0u64;
            for chunk in scenario.chunks(CHUNK_S) {
                let report = vdbms
                    .ingest_chunk(&video, &scenario, &chunk)
                    .expect("ingest chunk");
                let committed = Instant::now();
                // Did this chunk move the standing answer? Compare
                // against ground truth; only then is a push owed.
                let total = vdbms
                    .query(&video, QUERY)
                    .expect("ground-truth query")
                    .len() as u64;
                if total == last_total {
                    unchanged += 1;
                    continue;
                }
                loop {
                    let push = subscriber.next_push().expect("push frame within bound");
                    if push.video == video
                        && push.data_version >= report.data_version
                        && push.total == total
                    {
                        latencies_us.push(committed.elapsed().as_micros() as u64);
                        last_total = total;
                        break;
                    }
                }
            }
        }
        handle.shutdown();
        latencies_us.sort_unstable();
        (latencies_us, unchanged)
    };

    // Run 2: sustained chunk rate with the subscriber attached.
    let (elapsed, drained_total, expected_total) = {
        let vdbms = Arc::new(Vdbms::new());
        let handle = start(Arc::clone(&vdbms), ServerConfig::default()).expect("start server");
        let mut subscriber = Client::connect(handle.addr()).expect("connect subscriber");
        subscriber.subscribe("german", QUERY).expect("subscribe");
        subscriber
            .set_timeout(Some(PUSH_WAIT))
            .expect("set push timeout");

        let t = Instant::now();
        for chunk in scenario.chunks(CHUNK_S) {
            vdbms
                .ingest_chunk("german", &scenario, &chunk)
                .expect("ingest chunk");
        }
        let elapsed = t.elapsed();
        let expected_total = vdbms
            .query("german", QUERY)
            .expect("ground-truth query")
            .len() as u64;
        // Coalescing is allowed (the notifier may fold several chunks
        // into one delta) but the stream must converge on the truth.
        let mut drained_total = 0u64;
        while drained_total < expected_total {
            drained_total = subscriber.next_push().expect("converging push").total;
        }
        handle.shutdown();
        (elapsed, drained_total, expected_total)
    };

    let pushes = latencies_us.len();
    let p50 = percentile(&latencies_us, 0.50);
    let p99 = percentile(&latencies_us, 0.99);
    let chunks_per_s = n_chunks as f64 / elapsed.as_secs_f64().max(1e-9);
    // How much faster than the live broadcast the pipeline ingests:
    // 1.0 is barely keeping up with the race, less is falling behind.
    let realtime = chunks_per_s * CHUNK_S as f64;

    let mut table = Table::new(
        &format!(
            "Streaming ingest — {SECONDS}s broadcast in {CHUNK_S}s chunks x {ROUNDS} races, \
             standing '{QUERY}' subscriber"
        ),
        &[
            "chunks",
            "pushes",
            "unchanged",
            "p50 us",
            "p99 us",
            "chunks/s",
            "x realtime",
        ],
    );
    table.row(vec![
        Cell::Num((ROUNDS * n_chunks) as f64),
        Cell::Num(pushes as f64),
        Cell::Num(unchanged as f64),
        Cell::Num(p50 as f64),
        Cell::Num(p99 as f64),
        Cell::Num(chunks_per_s),
        Cell::Num(realtime),
    ]);

    let doc = serde_json::json!({
        "experiment": "stream",
        "config": {
            "seconds": (SECONDS as f64),
            "chunk_s": (CHUNK_S as f64),
            "chunks": (n_chunks as f64),
            "rounds": (ROUNDS as f64),
            "query": QUERY,
        },
        "latency": {
            "pushes": (pushes as f64),
            "unchanged": (unchanged as f64),
            "commit_to_push_us": {
                "p50": (p50 as f64),
                "p99": (p99 as f64),
            },
        },
        "sustained": {
            "elapsed_s": (elapsed.as_secs_f64()),
            "chunks_per_s": (chunks_per_s),
            "x_realtime": (realtime),
            "pushed_total": (drained_total as f64),
            "expected_total": (expected_total as f64),
        },
    });
    (table, doc)
}
