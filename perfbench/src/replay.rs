//! `replay-wide`: PLAID-shaped series (Wide, Multiclass) streamed
//! time-major through `StreamSession::push` on one thread, with no
//! sockets — the same call the server's event loop makes for each row.
//!
//! Three models, each round-tripped through the store: ECTS and EDSC
//! rescan the whole prefix on every row, and MiniROCKET+threshold runs
//! a transform and ridge head at six checkpoints. Their session counts
//! are fixed so that each takes roughly a third of the push time at
//! the commit that introduced the benchmark; this is where the O(L²)
//! per-series cost lives, and no network code runs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use etsc_core::{EarlyClassifier, EarlyPrediction, TriggeredBase};
use etsc_data::{Dataset, DatasetBuilder, MultiSeries};
use etsc_datasets::{GenOptions, PaperDataset};
use etsc_eval::experiment::{AlgoSpec, RunConfig};
use etsc_serve::{fit_model, fit_triggered_model, StoredModel, StreamSession};
use etsc_transforms::MiniRocket;
use etsc_trigger::TriggerSpec;

use crate::measure::{fast_time, median, percentile, status_kb, Digest, Latencies};
use crate::trace::{SpanId, Tracer};
use crate::{truth_labels, Args, Run};

/// PLAID at half length: L = 672 of 1345.
const LENGTH_SCALE: f64 = 0.5;
/// The models train on 53 PLAID-shaped instances drawn with a fixed
/// seed, so every run serves the same models; `--seed` draws the 2048
/// streamed instances, in two draws of 1024.
const TRAIN_SEED: u64 = 2024;
const TRAIN_HEIGHT_SCALE: f64 = 0.05;
const STREAM_HEIGHT_SCALE: f64 = 0.9535;
const STREAM_DRAWS: u64 = 2;
/// Sessions streamed together, time-major, as an event loop would
/// interleave them; a wave ends when its last session has decided.
const WAVE: usize = 64;
/// Full setups per untraced run; `setup_s` is their fastest tenth.
const SETUP_REPS: usize = 3;
/// Untimed sessions per model before the measured phase.
const WARMUP_SESSIONS: usize = 4;
/// MiniROCKET+threshold's checkpoints (`TriggeredConfig::default`).
const CHECKPOINTS: [f64; 6] = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0];

/// The streamed models and the sessions each streams in every round:
/// the first `n` streamed instances, the same ones every round, so that
/// rounds repeat identical work and differ only by the host's noise.
/// The counts were fixed when the benchmark was introduced so that each
/// model takes roughly a third of a round's push time there. ECTS's
/// sessions outnumber the others' twenty to one, so the pooled
/// decision-latency p50 and p90 both fall inside its share, and they
/// cover all 2048 instances so that accuracy and earliness average over
/// many draws. EDSC and MiniROCKET, whose reference `predict_early`
/// costs about as much as streaming, replay fewer.
const MODELS: [(&str, usize); 3] = [("ects", 2048), ("edsc", 16), ("minirocket-threshold", 64)];

fn run_config() -> RunConfig {
    RunConfig {
        // EDSC checks this budget while enumerating candidates; it must
        // never cut a fit short, or the fitted model would depend on
        // the host's speed.
        train_budget: Duration::from_secs(3600),
        ..RunConfig::fast()
    }
}

struct Model {
    key: &'static str,
    stored: StoredModel,
    batch: usize,
    /// `predict_early` of the streamed instances this model replays.
    reference: Vec<EarlyPrediction>,
}

struct Setup {
    train: Dataset,
    test: Dataset,
    /// Each streamed instance's class as a training label (`None` for
    /// a class the training draw lacks).
    truth: Vec<Option<usize>>,
    models: Vec<Model>,
    fit_s: f64,
    store_s: f64,
}

/// Dataset generation, model fits, the store round trip and the
/// reference decisions.
fn setup(seed: u64, tracer: &mut Tracer) -> Result<Setup, String> {
    let root = tracer.open("setup", SpanId::NONE, 0);
    let draw = |height_scale, seed| {
        PaperDataset::Plaid.generate(GenOptions {
            height_scale,
            length_scale: LENGTH_SCALE,
            seed,
        })
    };
    let train = draw(TRAIN_HEIGHT_SCALE, TRAIN_SEED);
    let mut streamed = DatasetBuilder::new("PLAID");
    for d in 0..STREAM_DRAWS {
        let part = draw(
            STREAM_HEIGHT_SCALE,
            seed.wrapping_mul(STREAM_DRAWS).wrapping_add(d),
        );
        for (inst, label) in part.iter() {
            let label = streamed.class(&part.class_names()[label]);
            streamed.push(inst.clone(), label);
        }
    }
    let test = streamed.build().map_err(|e| e.to_string())?;
    let truth = truth_labels(&train, &test);
    let config = run_config();
    let mut models = Vec::new();
    let (mut fit_s, mut store_s) = (0.0, 0.0);
    for (key, sessions) in MODELS {
        let started = Instant::now();
        let fitted = match key {
            "ects" => tracer.time("fit_model", root, 0, || {
                fit_model(AlgoSpec::Ects, &train, &config)
            }),
            "edsc" => tracer.time("fit_model", root, 0, || {
                fit_model(AlgoSpec::Edsc, &train, &config)
            }),
            _ => {
                let spec = TriggerSpec::parse("threshold").map_err(|e| e.to_string())?;
                tracer.time("fit_triggered_model", root, 0, || {
                    fit_triggered_model(TriggeredBase::MiniRocket, &spec, &train, &config)
                })
            }
        }
        .map_err(|e| format!("fit {key}: {e}"))?;
        fit_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        let bytes = tracer
            .time("store.to_bytes", root, 0, || fitted.to_bytes())
            .map_err(|e| format!("store {key}: {e}"))?;
        let stored = tracer
            .time("store.from_bytes", root, 0, || {
                StoredModel::from_bytes(&bytes)
            })
            .map_err(|e| format!("load {key}: {e}"))?;
        store_s += started.elapsed().as_secs_f64();
        let clf = stored.classifier();
        let mut reference = Vec::with_capacity(test.len());
        for (i, inst) in test.instances()[..sessions.min(test.len())]
            .iter()
            .enumerate()
        {
            let p = tracer
                .time("core.predict_early", root, i as u64, || {
                    clf.predict_early(inst)
                })
                .map_err(|e| format!("reference {key}: {e}"))?;
            reference.push(p);
        }
        let batch = stored.meta.decision_batch(test.max_len(), &config);
        models.push(Model {
            key,
            stored,
            batch,
            reference,
        });
    }
    tracer.close(root);
    Ok(Setup {
        train,
        test,
        truth,
        models,
        fit_s,
        store_s,
    })
}

/// What streaming one model's sessions produced.
#[derive(Default)]
struct Phase {
    sessions: usize,
    pushes: u64,
    evals: u64,
    wall_s: f64,
    busy_s: f64,
    failed: u64,
    correct: u64,
    earliness_sum: f64,
    /// Duration of each push that committed a decision (µs).
    decision_us: Vec<f64>,
    open_us: Vec<f64>,
    /// Push time summed over the first and last tenth of the prefix.
    first_tenth: (f64, u64),
    last_tenth: (f64, u64),
}

/// Streams one session per streamed instance `model` has a reference
/// for (the first `limit` of them), in waves of [`WAVE`]: at each time
/// step every undecided session of the wave receives its next row.
fn stream(
    model: &Model,
    setup: &Setup,
    limit: usize,
    digest: &mut Digest,
    tracer: &mut Tracer,
) -> Result<Phase, String> {
    let (test, truth) = (&setup.test, &setup.truth);
    let clf: &dyn EarlyClassifier = model.stored.classifier();
    let len = test.max_len();
    let tenth = len / 10;
    let sessions = model.reference.len().min(limit);
    let mut out = Phase {
        sessions,
        decision_us: Vec::with_capacity(sessions),
        open_us: Vec::with_capacity(sessions),
        ..Phase::default()
    };
    let phase = tracer.open("replay.stream", SpanId::NONE, 0);
    let started = Instant::now();
    let mut row = [0.0];
    for wave in (0..sessions).step_by(WAVE) {
        let mut live = Vec::with_capacity(WAVE);
        for k in wave..(wave + WAVE).min(sessions) {
            let t0 = Instant::now();
            let session = StreamSession::new(clf, 1, len, model.batch)
                .map_err(|e| format!("{}: open session: {e}", model.key))?;
            let t1 = Instant::now();
            tracer.record("StreamSession::new", phase, k as u64, t0, t1);
            out.open_us.push((t1 - t0).as_secs_f64() * 1e6);
            live.push((k, session));
        }
        for t in 0..len {
            let mut i = 0;
            while i < live.len() {
                let (inst, session) = &mut live[i];
                let inst = *inst;
                row[0] = test.instances()[inst].at(0, t);
                let t0 = Instant::now();
                let pushed = session.push(&row);
                let t1 = Instant::now();
                tracer.record("StreamSession::push", phase, inst as u64, t0, t1);
                let secs = (t1 - t0).as_secs_f64();
                out.pushes += 1;
                out.busy_s += secs;
                if t < tenth {
                    out.first_tenth.0 += secs;
                    out.first_tenth.1 += 1;
                } else if t >= len - tenth {
                    out.last_tenth.0 += secs;
                    out.last_tenth.1 += 1;
                }
                let done = match pushed {
                    Ok(None) if t + 1 < len => false,
                    Ok(None) | Err(_) => {
                        out.failed += 1;
                        true
                    }
                    Ok(Some(p)) => {
                        if p == model.reference[inst] {
                            out.decision_us.push(secs * 1e6);
                            out.correct += u64::from(truth[inst] == Some(p.label));
                            out.earliness_sum += p.prefix_len as f64 / len as f64;
                        } else {
                            out.failed += 1;
                        }
                        digest.add(inst as u64);
                        digest.add(p.label as u64);
                        digest.add(p.prefix_len as u64);
                        true
                    }
                };
                if done {
                    out.evals += session.evals() as u64;
                    live.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            if live.is_empty() {
                break;
            }
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    tracer.close(phase);
    Ok(out)
}

/// Median `MiniRocket::transform` time (µs) at each checkpoint length,
/// on transforms fitted with the model's configuration to the training
/// split cut at that length.
fn transform_us(setup: &Setup, tracer: &mut Tracer) -> Result<Vec<(usize, f64)>, String> {
    let len = setup.test.max_len();
    let config = run_config().minirocket_config();
    let parent = tracer.open("offline.minirocket", SpanId::NONE, 0);
    let mut out = Vec::new();
    for f in CHECKPOINTS {
        let t = ((len as f64 * f).round() as usize).clamp(3, len);
        let train = setup.train.truncated(t).map_err(|e| e.to_string())?;
        let mut transform = MiniRocket::new(config.clone());
        transform
            .fit(train.instances())
            .map_err(|e| format!("fit MiniRocket: {e:?}"))?;
        let streamed = setup
            .models
            .iter()
            .find(|m| m.key == "minirocket-threshold")
            .map_or(0, |m| m.reference.len());
        let prefixes: Vec<MultiSeries> = setup.test.instances()[..streamed]
            .iter()
            .map(|s| s.prefix(t))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let mut times = Vec::new();
        for (i, p) in prefixes.iter().enumerate() {
            let t0 = Instant::now();
            let features = transform.transform(p);
            let t1 = Instant::now();
            tracer.record("MiniRocket::transform", parent, i as u64, t0, t1);
            std::hint::black_box(features.map_err(|e| format!("transform: {e:?}"))?);
            times.push((t1 - t0).as_secs_f64() * 1e6);
        }
        out.push(((f * 100.0).round() as usize, median(&times)));
    }
    tracer.close(parent);
    Ok(out)
}

/// What one round streamed: a phase per model.
type Round = Vec<Phase>;

/// One round: every model's sessions in turn, at most `limit` each.
fn round(
    setup: &Setup,
    limit: usize,
    digest: &mut Digest,
    tracer: &mut Tracer,
) -> Result<Round, String> {
    setup
        .models
        .iter()
        .map(|m| stream(m, setup, limit, digest, tracer))
        .collect()
}

/// Model `m`'s streaming time in each round.
fn segment_s(rounds: &[Round], m: usize) -> Vec<f64> {
    rounds.iter().map(|r| r[m].wall_s).collect()
}

/// Observations per second of a round streamed at each model's pace in
/// its fastest rounds: a round's pushes over the sum, over models, of
/// their [`fast_time`] streaming a round.
fn fast_obs_per_s(rounds: &[Round]) -> f64 {
    let pushes: u64 = rounds[0].iter().map(|p| p.pushes).sum();
    let wall: f64 = (0..rounds[0].len())
        .map(|m| fast_time(&segment_s(rounds, m)))
        .sum();
    pushes as f64 / wall
}

/// The measured rounds, started until `seconds` have passed; a traced
/// run also runs each round untraced just before it and returns those
/// rounds, to price the tracing under the same host load. Only the
/// first round feeds `digest`: every round must receive the same
/// decisions, as each is checked against the reference.
fn rounds(
    setup: &Setup,
    seconds: f64,
    digest: &mut Digest,
    tracer: &mut Tracer,
) -> Result<(Vec<Round>, Vec<Round>), String> {
    let (mut all, mut untraced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while all.is_empty() || started.elapsed().as_secs_f64() < seconds {
        if tracer.on() {
            let twin = round(
                setup,
                usize::MAX,
                &mut Digest::new(),
                &mut Tracer::new(false),
            )?;
            untraced.push(twin);
        }
        let mut later = Digest::new();
        let digest = if all.is_empty() {
            &mut *digest
        } else {
            &mut later
        };
        all.push(round(setup, usize::MAX, digest, tracer)?);
    }
    Ok((all, untraced))
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Result<Run, String> {
    // Setup, several times when untraced; `setup_s` is the fastest tenth.
    let reps = if tracer.on() { 1 } else { SETUP_REPS };
    let mut setup_times = Vec::new();
    let mut built = None;
    for _ in 0..reps {
        let started = Instant::now();
        built = Some(setup(args.seed, tracer)?);
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let setup = built.expect("at least one setup");
    let len = setup.test.max_len();
    println!(
        "replay-wide: PLAID-shaped L={len}, {} training instances, {} streamed, seed {}",
        setup.train.len(),
        setup.test.len(),
        args.seed
    );
    for m in &setup.models {
        let rows: usize = m.reference.iter().map(|p| p.prefix_len).sum();
        println!(
            "  plan {:<22} {:>4} sessions  rows {rows:>7} a round  batch {}",
            m.key,
            m.reference.len(),
            m.batch
        );
    }
    println!(
        "  load: nproc {}, 1 thread, 0 connections, waves of {WAVE} sessions through StreamSession::push",
        crate::measure::nproc()
    );

    let mut warm = Digest::new();
    let mut off = Tracer::new(false);
    round(&setup, WARMUP_SESSIONS, &mut warm, &mut off)?;

    let mut digest = Digest::new();
    let (all, untraced) = rounds(&setup, args.seconds as f64, &mut digest, tracer)?;

    let phases: Vec<&Phase> = all.iter().flatten().collect();
    let attempted: u64 = phases.iter().map(|p| p.sessions as u64).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let decided: usize = phases.iter().map(|p| p.decision_us.len()).sum();
    let correct: u64 = phases.iter().map(|p| p.correct).sum();
    let earliness: f64 =
        phases.iter().map(|p| p.earliness_sum).sum::<f64>() / decided.max(1) as f64;
    let per_round: Vec<Latencies> = all
        .iter()
        .map(|r| {
            Latencies::of(
                &r.iter()
                    .flat_map(|p| p.decision_us.clone())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let fast = |f: fn(&Latencies) -> f64| fast_time(&per_round.iter().map(f).collect::<Vec<_>>());
    let (p50, p90) = (fast(|l| l.p50), fast(|l| l.p90));
    let obs_per_s = fast_obs_per_s(&all);
    for (i, m) in setup.models.iter().enumerate() {
        let pushes = all[0][i].pushes;
        let times = segment_s(&all, i);
        let failed: u64 = all.iter().map(|r| r[i].failed).sum();
        println!(
            "  {:<22} {pushes:>7} pushes a round in {:.3} s fastest tenth, {:.3} s median, {:.3}-{:.3} s range, {failed} failed",
            m.key,
            fast_time(&times),
            median(&times),
            percentile(&times, 0.0),
            percentile(&times, 1.0),
        );
    }
    let round_s: Vec<String> = all
        .iter()
        .map(|r| format!("{:.2}", r.iter().map(|p| p.wall_s).sum::<f64>()))
        .collect();
    println!("  {} rounds, s: {}", all.len(), round_s.join(" "));
    println!(
        "  fastest tenth of rounds: {obs_per_s:.0} obs/s; committing push p50 {p50:.2} us, p90 {p90:.2} us"
    );
    let pooled: Vec<f64> = phases.iter().flat_map(|p| p.decision_us.clone()).collect();
    println!(
        "{}",
        Latencies::of(&pooled).line("  committing push, pooled")
    );
    println!("  decisions {decided} of {attempted}");
    println!("  first round's decisions digest {:016x}", digest.value());

    let mut run = Run::new(attempted, failed);
    run.end_to_end = vec![
        ("obs_per_s", obs_per_s),
        ("decision_p50_us", p50),
        ("decision_p90_us", p90),
        ("accuracy", correct as f64 / decided.max(1) as f64),
        ("earliness", earliness),
        ("setup_s", fast_time(&setup_times)),
        ("peak_rss_mb", status_kb("VmHWM") as f64 / 1024.0),
    ];
    if tracer.on() {
        let mut layers: BTreeMap<String, f64> = BTreeMap::new();
        for (i, m) in setup.models.iter().enumerate() {
            // Per round: the number of rounds depends on the host's speed.
            let busy: Vec<f64> = all.iter().map(|r| r[i].busy_s).collect();
            let first_round = &all[0][i];
            layers.insert(format!("serve.push.{}.busy_s", m.key), fast_time(&busy));
            layers.insert(
                format!("serve.push.{}.count", m.key),
                first_round.pushes as f64,
            );
            layers.insert(
                format!("serve.push.{}.evals", m.key),
                first_round.evals as f64,
            );
            let sum = |f: &dyn Fn(&Phase) -> f64| all.iter().map(|r| f(&r[i])).sum::<f64>();
            let first = sum(&|p| p.first_tenth.0) / sum(&|p| p.first_tenth.1 as f64);
            let last = sum(&|p| p.last_tenth.0) / sum(&|p| p.last_tenth.1 as f64);
            layers.insert(format!("core.{}.cost_growth", m.key), last / first);
        }
        for (pct, us) in transform_us(&setup, tracer)? {
            layers.insert(format!("transforms.minirocket.transform_us.cp{pct}"), us);
        }
        let opens: Vec<f64> = phases.iter().flat_map(|p| p.open_us.clone()).collect();
        layers.insert("serve.session.open_us".into(), median(&opens));
        layers.insert("setup.fit_s".into(), setup.fit_s);
        layers.insert("setup.store_s".into(), setup.store_s);
        let base = fast_obs_per_s(&untraced);
        layers.insert(
            "trace.overhead_pct".into(),
            (base - obs_per_s) / base * 100.0,
        );
        run.per_layer = layers;
    }
    Ok(run)
}
