//! Trigger decision parity across every serving surface: with a fixed
//! seed, the same (base classifier, trigger) pair must halt at the same
//! timestamp with the same label whether it is driven in-process, one
//! observation at a time through a [`StreamSession`], or over the rev-2
//! wire protocol — and still after the crash-consistent store recovers
//! the model from its `.prev` last-good copy.

use std::sync::Arc;

use etsc_core::TriggeredBase;
use etsc_data::{Dataset, DatasetBuilder, MultiSeries, Series};
use etsc_eval::experiment::RunConfig;
use etsc_net::{ClientBuilder, Endpoint, ServerBuilder};
use etsc_serve::{fit_triggered_model, load_resilient, StoredModel, StreamSession};
use etsc_trigger::TriggerSpec;

/// Deterministic two-class set, separable a few points in but with a
/// shared noisy prefix, so the trigger genuinely chooses *when* to
/// halt rather than always firing at t = 0 or running to the end.
fn synthetic() -> Dataset {
    let mut b = DatasetBuilder::new("trigger-parity");
    for i in 0..16 {
        let phase = i as f64 * 0.41;
        let (class, sign) = if i % 2 == 0 {
            ("up", 1.0)
        } else {
            ("down", -1.0)
        };
        let values: Vec<f64> = (0..24)
            .map(|t| {
                let noise = ((t as f64 * 0.9) + phase).sin() * 0.3;
                let signal = if t >= 4 {
                    sign * (1.5 + 0.1 * t as f64)
                } else {
                    0.0
                };
                noise + signal
            })
            .collect();
        b.push_named(MultiSeries::univariate(Series::new(values)), class);
    }
    b.build().unwrap()
}

/// One (label, halt timestamp) pair per instance, decided in-process.
fn in_process_decisions(stored: &StoredModel, data: &Dataset) -> Vec<(usize, usize)> {
    (0..data.len())
        .map(|i| {
            let p = stored.classifier().predict_early(data.instance(i)).unwrap();
            (p.label, p.prefix_len)
        })
        .collect()
}

/// The same decisions, one observation at a time through the serving
/// session layer.
fn session_decisions(stored: &StoredModel, data: &Dataset) -> Vec<(usize, usize)> {
    let batch = stored
        .meta
        .decision_batch(data.max_len(), &RunConfig::fast());
    (0..data.len())
        .map(|i| {
            let inst = data.instance(i);
            let mut session =
                StreamSession::new(stored.classifier(), inst.vars(), inst.len(), batch).unwrap();
            for t in 0..inst.len() {
                let row: Vec<f64> = (0..inst.vars()).map(|v| inst.at(v, t)).collect();
                session.push(&row).unwrap();
            }
            let d = session.decision().expect("session must decide");
            (d.label, d.prefix_len)
        })
        .collect()
}

/// The same decisions over a real socket, using the rev-2 batched
/// frames.
fn wire_decisions(model: Arc<StoredModel>, data: &Dataset) -> Vec<(usize, usize)> {
    let server = Endpoint::serve(model, "127.0.0.1:0", ServerBuilder::new()).unwrap();
    let addr = server.local_addr().to_string();
    // The client refuses a server below rev 2, so the rows below
    // travel as batch frames.
    let mut client = Endpoint::connect(&addr, ClientBuilder::new()).unwrap();
    let mut out = Vec::with_capacity(data.len());
    for i in 0..data.len() {
        let inst = data.instance(i);
        let id = client.open_session(inst.len()).unwrap();
        let rows: Vec<Vec<f64>> = (0..inst.len())
            .map(|t| (0..inst.vars()).map(|v| inst.at(v, t)).collect())
            .collect();
        client.observe_batch(id, &rows).unwrap();
        let d = client
            .wait_decision(id, std::time::Duration::from_secs(20))
            .unwrap();
        out.push((d.label, d.prefix_len));
    }
    drop(client);
    let stats = server.join();
    assert_eq!(stats.proto_errors, 0);
    out
}

#[test]
fn triggered_decisions_agree_across_every_surface() {
    let data = synthetic();
    let spec = TriggerSpec::parse("calibrated:cal=platt,threshold=0.75").unwrap();
    let config = RunConfig {
        seed: 4242,
        ..RunConfig::fast()
    };
    let stored = fit_triggered_model(TriggeredBase::Weasel, &spec, &data, &config).unwrap();

    let baseline = in_process_decisions(&stored, &data);
    // The trigger must actually be exercising earliness somewhere —
    // a dataset where every instance runs to full length would make
    // this parity test vacuous.
    assert!(
        baseline.iter().any(|&(_, t)| t < data.max_len()),
        "no instance halted early: {baseline:?}"
    );

    assert_eq!(session_decisions(&stored, &data), baseline);

    // Persist crash-consistently: the second save demotes the first
    // write to the `.prev` last-good copy.
    let dir = std::env::temp_dir().join("etsc-trigger-parity");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("parity.model");
    std::fs::remove_file(dir.join("parity.model.quarantine")).ok();
    stored.save(&path).unwrap();
    stored.save(&path).unwrap();

    let loaded = StoredModel::load(&path).unwrap();
    assert_eq!(loaded.meta, stored.meta);
    assert_eq!(wire_decisions(Arc::new(loaded), &data), baseline);

    // Corrupt the primary; recovery from `.prev` must serve the exact
    // same decisions over the wire.
    let mut bytes = std::fs::read(&path).unwrap();
    let n = bytes.len();
    bytes[n - 9] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    let outcome = load_resilient(&path).unwrap();
    assert!(outcome.recovered_from_prev, "{:?}", outcome.warnings);
    assert_eq!(outcome.model.meta.trigger, stored.meta.trigger);
    assert_eq!(wire_decisions(Arc::new(outcome.model), &data), baseline);

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(dir.join("parity.model.prev")).ok();
    std::fs::remove_file(dir.join("parity.model.quarantine")).ok();
}
