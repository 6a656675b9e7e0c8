//! The experiment functions, one per table/figure of the paper.

use std::time::Instant;

use f1_bayes::bk::Clusters;
use f1_bayes::engine::Engine;
use f1_bayes::evidence::EvidenceSeq;
use f1_bayes::metrics::{accumulate, precision_recall, roughness, PrecisionRecall};
use f1_bayes::paper::{BnStructure, TemporalVariant};
use f1_cobra::{query_truth, training_windows};
use f1_media::features::audio::AudioAnalyzer;
use f1_media::features::endpoint::{energy_entropy, zero_crossing_rate, EndpointConfig};
use f1_media::features::video::{detect_shots, ShotConfig};
use f1_media::synth::audio::AudioSynth;
use f1_media::synth::scenario::{EventKind, RaceScenario, Span, DRIVERS};
use f1_media::synth::video::VideoSynth;
use f1_media::time::{clips_per_second, VIDEO_FPS};
use f1_media::window::Window;

use crate::data::Races;
use crate::excited::{self, clip_errors, evaluate, train_audio, BN_ACCUMULATE_WINDOW};
use crate::report::{Cell, Table};

fn pr_cells(name: &str, p: f64, r: f64) -> Vec<Cell> {
    vec![Cell::Text(name.into()), Cell::Percent(p), Cell::Percent(r)]
}

/// **Table 1** — three BN structures vs the fully parameterized DBN for
/// emphasized-speech detection on the German GP. Trains the four
/// networks and leaves them installed (`bn-full`, `bn-direct`, `bn-io`,
/// `dbn-full`) for the experiments that reuse them.
pub fn table1(races: &Races) -> Table {
    let full = BnStructure::FullyParameterized;
    let mut table = Table::new(
        "Table 1 — Comparison of BNs and DBNs for detection of emphasized speech (German GP)",
        &["Network", "Precision", "Recall"],
    );
    for (label, net, structure, variant) in [
        ("Fully parameterized BN (Fig 7a)", "bn-full", full, None),
        (
            "BN with direct evidence influence (Fig 7b)",
            "bn-direct",
            BnStructure::DirectEvidence,
            None,
        ),
        (
            "Input/Output BN (Fig 7c)",
            "bn-io",
            BnStructure::InputOutput,
            None,
        ),
        (
            "Fully parameterized DBN (Fig 8 + 7a)",
            "dbn-full",
            full,
            Some(TemporalVariant::Full),
        ),
    ] {
        train_audio(races, net, structure, variant);
        let pr = evaluate(races, "german", net);
        table.row(pr_cells(label, pr.precision, pr.recall));
    }
    table
}

/// **Table 2** — the audio DBN trained on the German GP (`dbn-full`, at
/// the level stored with it), evaluated on the Belgian and USA GPs.
pub fn table2(races: &Races) -> Table {
    let dbn = races.vdbms.net("dbn-full").expect("table1 trained it");
    let level = dbn.thresholds["EA"];
    let mut table = Table::new(
        &format!(
            "Table 2 — Evaluation results for the audio DBN (trained on German GP, level {level:.2})"
        ),
        &["Race", "Precision", "Recall"],
    );
    for (label, video) in [("Belgian Grand Prix", "belgian"), ("USA Grand Prix", "usa")] {
        let pr = evaluate(races, video, "dbn-full");
        table.row(pr_cells(label, pr.precision, pr.recall));
    }
    table
}

/// Precision/recall of a retrieval statement's answer over an annotated
/// race, against the truth of the query node the statement reads.
fn retrieval_pr(races: &Races, video: &str, statement: &str, query: &str) -> PrecisionRecall {
    precision_recall(
        &races.retrieve(video, statement),
        &query_truth(races.scenario(video), query),
    )
}

/// Annotates `video` with the installed `net` and appends one row per
/// retrieval statement the network has the query node for.
fn retrieval_rows(races: &Races, table: &mut Table, video: &str, net: &str, prefix: &str) {
    races.vdbms.annotate(video, net).expect("annotation runs");
    let stored = races.vdbms.net(net).expect("network was trained");
    for (label, statement, query) in [
        ("Highlights", "RETRIEVE HIGHLIGHTS", "HL"),
        ("Start", "RETRIEVE EVENTS START", "ST"),
        ("Fly Out", "RETRIEVE EVENTS FLY_OUT", "FO"),
        ("Passing", "RETRIEVE EVENTS PASSING", "PS"),
    ] {
        if stored.queries.iter().any(|(name, _)| name == query) {
            let pr = retrieval_pr(races, video, statement, query);
            table.row(pr_cells(
                &format!("{prefix}{label}"),
                pr.precision,
                pr.recall,
            ));
        }
    }
}

/// **Table 3** — the audio-visual DBN on the German GP: highlights plus
/// start / fly-out / passing classification, read back with `RETRIEVE`.
/// Trains the network with (`av`) and without (`av-nopass`) the passing
/// sub-network and leaves both installed.
pub fn table3(races: &Races) -> Table {
    let scenario = races.scenario("german");
    let windows = training_windows(scenario.n_clips);
    let train = |with_passing| {
        (races.vdbms)
            .train_highlight_net("german", scenario, &windows, with_passing)
            .expect("EM on extracted evidence succeeds");
        races.vdbms.net("av").expect("just trained")
    };
    races.vdbms.install_net("av-nopass", train(false));
    train(true);
    let mut table = Table::new(
        "Table 3 — The audio-visual DBN (German GP)",
        &["Query", "Precision", "Recall"],
    );
    retrieval_rows(races, &mut table, "german", "av", "");
    table
}

/// **Table 4** — the German-trained audio-visual DBN, at the levels
/// stored with it, on the Belgian GP (with the passing sub-network) and
/// the USA GP (without it; that race has no fly-outs, paper footnote 3,
/// so both metrics of its row are 0).
pub fn table4(races: &Races) -> Table {
    let level = |net| races.vdbms.net(net).expect("table3 trained it").thresholds["HL"];
    let mut table = Table::new(
        &format!(
            "Table 4 — Evaluation results for the audio-visual DBN (Belgian with passing subnet, \
             level {:.2}; USA without, level {:.2})",
            level("av"),
            level("av-nopass")
        ),
        &["Race / Query", "Precision", "Recall"],
    );
    retrieval_rows(races, &mut table, "belgian", "av", "Belgian: ");
    retrieval_rows(races, &mut table, "usa", "av-nopass", "USA: ");
    table
}

/// **Fig. 9** — BN vs DBN inference traces over a 300 s window: the BN
/// output is noisy and needs accumulation, the DBN output is smooth.
/// Returns the summary table and the two traces for plotting.
pub fn fig9(races: &Races) -> (Table, Vec<f64>, Vec<f64>) {
    let infer = |net| (races.vdbms.infer("german", net)).expect("inference runs")["EA"].clone();
    let mut bn_trace: Vec<f64> = infer("bn-full");
    let mut dbn_trace = infer("dbn-full");
    bn_trace.truncate(3000);
    dbn_trace.truncate(3000);
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
pub fn temporal(races: &Races) -> Table {
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
        train_audio(
            races,
            "dbn-wiring",
            BnStructure::FullyParameterized,
            Some(variant),
        );
        let pr = evaluate(races, "german", "dbn-wiring");
        table.row(pr_cells(name, pr.precision, pr.recall));
    }
    table
}

/// **§5.5 clustering experiment** — Boyen–Koller projection with all
/// hidden nodes in one cluster ("exact") vs the query node separated vs
/// fully factored. `Vdbms::infer` takes no cluster argument, so this one
/// experiment filters `dbn-full` itself, over the catalog's audio
/// columns and at the network's stored level.
pub fn clustering(races: &Races) -> Table {
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
    let scenario = races.scenario("german");
    let stored = races.vdbms.net("dbn-full").expect("table1 trained it");
    let net = &stored.net;
    let audio = (races.vdbms.catalog)
        .load_features("german", net.feature_nodes.len())
        .expect("the feature layer was ingested");
    let ev = EvidenceSeq::from_matrix(&net.feature_nodes, &audio);
    let engine = Engine::new(&net.dbn).expect("paper nets compile");
    let infer = |clusters: Option<&Clusters>| -> Vec<f64> {
        let post = engine
            .filter(&ev, clusters.map(|c| c.as_slices()))
            .expect("inference over extracted evidence succeeds");
        post.trace(net.query, 1).expect("query node is hidden")
    };
    let exact_trace = infer(None);
    let configs: Vec<(&str, Clusters)> = vec![
        ("one cluster (exact)", Clusters::single(&net.dbn)),
        (
            "query separated from other hidden nodes",
            Clusters::separate(&net.dbn, &["EA"]).expect("EA is hidden"),
        ),
        (
            "fully factored (one node per cluster)",
            Clusters::singletons(&net.dbn),
        ),
    ];
    for (name, clusters) in configs {
        let trace = infer(Some(&clusters));
        let pr = excited::precision_recall(&trace, &stored, scenario);
        let errors = clip_errors(&trace, scenario);
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
pub fn keywords(scenario: &RaceScenario) -> Table {
    use f1_keyword::{spot, AcousticModel, Grammar, PhonemeStream, SpotterConfig};
    let stream = PhonemeStream::from_scenario(scenario);
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
        let (p, r) = f1_keyword::spotter::evaluate(&spots, &scenario.keywords, 2);
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
pub fn endpoint(scenario: &RaceScenario) -> Table {
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
pub fn shots(scenario: &RaceScenario) -> Table {
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
/// DBN was able to correct the results and detect about 80%": the
/// trained `av` network installed twice more — once reading only the
/// audio columns f1…f10 (the visual leaves stay unobserved, which the
/// engine marginalizes exactly), once reading all seventeen — both at one
/// shared decision level so the comparison isolates the evidence.
pub fn ablation(races: &Races) -> Table {
    let mut table = Table::new(
        "§6 ablation — audio-only vs audio-visual highlight detection (German GP)",
        &["Evidence", "Precision", "Recall"],
    );
    let trained = races.vdbms.net("av").expect("table3 trained it");
    for (label, name, n_features) in [
        ("audio only (f1–f10)", "av-audio", 10),
        ("audio-visual (f1–f17)", "av-shared", 17),
    ] {
        let mut stored = trained.clone();
        stored.net.feature_nodes.truncate(n_features);
        stored.thresholds.insert("HL".into(), 0.35);
        races.vdbms.install_net(name, stored);
        races
            .vdbms
            .annotate("german", name)
            .expect("annotation runs");
        let pr = retrieval_pr(races, "german", "RETRIEVE HIGHLIGHTS", "HL");
        table.row(pr_cells(label, pr.precision, pr.recall));
    }
    table
}

/// **§5.6 retrieval queries** — the VDBMS that ingested, trained on and
/// annotated the German GP answering the paper's query set, each answer
/// checked against ground truth.
pub fn queries(races: &Races) -> Table {
    let scenario = races.scenario("german");
    let vdbms = &races.vdbms;
    vdbms.annotate("german", "av").expect("annotation runs");
    let winner_name = DRIVERS[scenario.standings_at(scenario.n_clips - 1)[0]];

    let mut table = Table::new(
        "§5.6 — Retrieval queries over the annotated German GP",
        &["Query", "Segments", "Grounded"],
    );
    let mut run = |query: String, truth: Vec<Span>, require_nonempty: bool| {
        let results = vdbms.query("german", &query).expect("query parses");
        // Grounded: results exist (when expected) and at least two thirds
        // of them overlap ground truth (detection is probabilistic; a few
        // false alarms are the paper's reality too).
        let overlaps = |seg: &&f1_cobra::RetrievedSegment| {
            truth.iter().any(|s| s.start < seg.end && seg.start < s.end)
        };
        let grounded = if truth.is_empty() {
            !require_nonempty || !results.is_empty()
        } else {
            let ok = results.iter().filter(overlaps).count();
            !results.is_empty() && ok * 3 >= results.len() * 2
        };
        table.row(vec![
            Cell::Text(query),
            Cell::Num(results.len() as f64),
            Cell::Text(if grounded { "yes".into() } else { "NO".into() }),
        ]);
    };
    // A sub-event is grounded against its own kind: the events of that
    // kind, and the replays that re-show one (a replay of a fly-out
    // legitimately classifies as a fly-out).
    let kind_truth = |kind: EventKind| -> Vec<Span> {
        let events = scenario.events_of(kind);
        let replays = scenario
            .replays
            .iter()
            .filter(|r| (events.iter()).any(|e| e.start < r.source.end && r.source.start < e.end));
        events
            .iter()
            .copied()
            .chain(replays.map(|r| r.span))
            .collect()
    };
    let pit_stops_of = |driver: &str| -> Vec<Span> {
        (scenario.events.iter())
            .filter(|e| {
                e.kind == EventKind::PitStop && e.driver.map(|d| DRIVERS[d]) == Some(driver)
            })
            .map(|e| e.span)
            .collect()
    };

    run("RETRIEVE HIGHLIGHTS".into(), scenario.highlights(), true);
    run(
        "RETRIEVE EVENTS FLY_OUT".into(),
        kind_truth(EventKind::FlyOut),
        true,
    );
    run(
        "RETRIEVE EVENTS START".into(),
        kind_truth(EventKind::Start),
        true,
    );
    // Pit stop of a driver who truly pitted.
    let pit_driver = (scenario.events.iter())
        .find(|e| e.kind == EventKind::PitStop)
        .and_then(|e| e.driver)
        .map(|d| DRIVERS[d])
        .expect("scenario has pit stops");
    run(
        format!("RETRIEVE PITSTOPS WITH DRIVER \"{pit_driver}\""),
        pit_stops_of(pit_driver),
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
