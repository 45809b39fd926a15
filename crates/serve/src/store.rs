//! Persistent model store: versioned, crash-consistent binary files
//! for fitted models.
//!
//! Layout (all scalars little-endian, via [`etsc_data::codec`]):
//!
//! ```text
//! magic   u64   "ETSCMODL"
//! version u64   bumped on any payload schema change
//! meta    section   algorithm name, dataset name, vars, train length,
//!                   class names, training prior label, trigger
//!                   descriptor (version ≥ 4), voting flag
//! payload section   the algorithm's own `encode_state` field sequence
//! trigger section   (version ≥ 4, trigger-wrapped models only) the
//!                   fitted decision trigger + calibration map, every
//!                   float as its exact IEEE-754 bit pattern
//! ```
//!
//! where each *section* is `len u64 · bytes · crc64 u64` — the CRC-64/XZ
//! checksum of the bytes. A flipped bit or torn write anywhere inside a
//! section is detected as [`ServeError::Checksum`] instead of being
//! decoded into garbage weights.
//!
//! Crash consistency: [`StoredModel::save`] writes a temp file, keeps
//! the previous file as `<name>.prev` (last-good), and renames into
//! place, so no crash can leave the primary path truncated.
//! [`load_resilient`] completes the story: a corrupt primary file is
//! quarantined as `<name>.quarantine` and serving transparently falls
//! back to the last-good `.prev` copy, with warnings describing what
//! happened.
//!
//! Every float is stored as its IEEE-754 bit pattern, so a loaded model
//! is *bit-identical* to the saved one: the round-trip property test in
//! the workspace root asserts equal predictions on held-out data for
//! every algorithm.

use std::path::{Path, PathBuf};

use etsc_core::full::{
    MiniRocketClassifier, MiniRocketClassifierConfig, MlstmClassifier, MlstmClassifierConfig,
    WeaselClassifier, WeaselClassifierConfig,
};
use etsc_core::{
    decode_trigger, encode_trigger, EarlyClassifier, Ecec, EcecConfig, EconomyK, EconomyKConfig,
    Ects, EctsConfig, Edsc, EdscConfig, EtscError, Strut, Teaser, TeaserConfig, TriggeredBase,
    TriggeredClassifier, TriggeredConfig, VotingAdapter, VotingScheme,
};
use etsc_data::codec::{crc64, CodecError, Decoder, Encoder};
use etsc_data::Dataset;
use etsc_eval::experiment::{AlgoSpec, RunConfig};
use etsc_trigger::{FittedTrigger, TriggerSpec};

/// File magic: `b"ETSCMODL"` as a little-endian `u64`.
const MAGIC: u64 = u64::from_le_bytes(*b"ETSCMODL");

/// Payload schema version; bump when any `encode_state` sequence
/// changes shape. Version 2 introduced per-section CRC64 checksums and
/// the training prior label; version 4 the trigger descriptor in the
/// metadata plus the CRC-guarded trigger section.
const FORMAT_VERSION: u64 = 4;

/// Oldest version this build still reads. Version-3 files (no trigger
/// machinery) load as plain models with `trigger: None`.
const MIN_FORMAT_VERSION: u64 = 3;

/// Failures of the model store.
#[derive(Debug)]
pub enum ServeError {
    /// Filesystem failure reading or writing a model file.
    Io(std::io::Error),
    /// The file's bytes do not decode as a model of this version.
    Codec(CodecError),
    /// The underlying algorithm failed (training, prediction, or an
    /// unsupported configuration for persistence).
    Model(EtscError),
    /// The file decoded but is not usable here (wrong magic, newer
    /// version, unknown algorithm name).
    Format(String),
    /// A section's CRC64 does not match its bytes: the file was
    /// corrupted after it was written (bit rot, torn write, tampering).
    Checksum {
        /// Which section failed verification.
        section: &'static str,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "model store I/O failed: {e}"),
            ServeError::Codec(e) => write!(f, "model file does not decode: {e}"),
            ServeError::Model(e) => write!(f, "model failure: {e}"),
            ServeError::Format(msg) => write!(f, "unusable model file: {msg}"),
            ServeError::Checksum { section } => write!(
                f,
                "model file is corrupt: CRC64 mismatch in the {section} section"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<CodecError> for ServeError {
    fn from(e: CodecError) -> Self {
        ServeError::Codec(e)
    }
}

impl From<EtscError> for ServeError {
    fn from(e: EtscError) -> Self {
        ServeError::Model(e)
    }
}

/// What the service needs to know about a model besides its weights:
/// which algorithm, what data shape it was trained on, and how to print
/// its predictions.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMeta {
    /// Trained algorithm.
    pub algo: AlgoSpec,
    /// Name of the training dataset.
    pub dataset: String,
    /// Variables per instance the model expects.
    pub vars: usize,
    /// Series length of the training data (the replay horizon).
    pub train_len: usize,
    /// Class display names, indexed by dense label.
    pub class_names: Vec<String>,
    /// Majority class of the training data — the verdict a forced
    /// decision commits when its evaluation abstains (a session drained
    /// before it observed anything).
    pub prior_label: usize,
    /// Monotonic model generation, starting at 1 for a fresh
    /// `fit_model` and bumped by each adaptive refit — the counter the
    /// fleet router's blue/green machinery keys swaps on.
    pub generation: u64,
    /// Present when the payload is a trigger-wrapped classifier: which
    /// base it wraps and the canonical trigger spec it was fitted with.
    /// For such models [`ModelMeta::algo`] holds the nearest STRUT slot
    /// (`S-MiniROCKET` for a triggered MiniROCKET, ...), kept only so
    /// version-agnostic consumers still have a valid [`AlgoSpec`];
    /// display paths should prefer [`ModelMeta::algo_label`].
    pub trigger: Option<TriggerDesc>,
}

/// How a trigger-wrapped model identifies itself in the metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct TriggerDesc {
    /// The wrapped base classifier.
    pub base: TriggeredBase,
    /// Canonical [`TriggerSpec`] string (round-trips through
    /// `TriggerSpec::parse`).
    pub spec: String,
}

impl ModelMeta {
    /// The prefix-batch size serving sessions should re-evaluate at.
    /// Trigger-wrapped models gate their own evaluation on internal
    /// checkpoints, so they observe per point; plain models defer to
    /// the algorithm's batch rule.
    pub fn decision_batch(&self, len: usize, config: &RunConfig) -> usize {
        if self.trigger.is_some() {
            1
        } else {
            self.algo.decision_batch(len, config)
        }
    }

    /// Human-facing algorithm label: the algorithm name for plain
    /// models, `BASE+family` (e.g. `MiniROCKET+cost`) for triggered
    /// ones.
    pub fn algo_label(&self) -> String {
        match &self.trigger {
            Some(t) => format!(
                "{}+{}",
                t.base.name(),
                t.spec.split(':').next().unwrap_or("trigger")
            ),
            None => self.algo.name().to_owned(),
        }
    }

    fn encode(&self, e: &mut Encoder) {
        e.str(self.algo.name());
        e.str(&self.dataset);
        e.usize(self.vars);
        e.usize(self.train_len);
        e.usize(self.class_names.len());
        for name in &self.class_names {
            e.str(name);
        }
        e.usize(self.prior_label);
        e.u64(self.generation);
        match &self.trigger {
            None => e.bool(false),
            Some(t) => {
                e.bool(true);
                e.str(t.base.name());
                e.str(&t.spec);
            }
        }
    }

    fn decode(d: &mut Decoder, version: u64) -> Result<ModelMeta, ServeError> {
        let algo_name = d.str()?;
        let algo = AlgoSpec::by_name(&algo_name)
            .ok_or_else(|| ServeError::Format(format!("unknown algorithm {algo_name:?}")))?;
        let dataset = d.str()?;
        let vars = d.usize()?;
        let train_len = d.usize()?;
        let n = d.usize()?;
        let mut class_names = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            class_names.push(d.str()?);
        }
        let prior_label = d.usize()?;
        if n > 0 && prior_label >= n {
            return Err(ServeError::Format(format!(
                "prior label {prior_label} out of range for {n} classes"
            )));
        }
        let generation = d.u64()?;
        if generation == 0 {
            return Err(ServeError::Format(
                "model generation 0 is reserved (generations start at 1)".into(),
            ));
        }
        // Version 3 predates the trigger machinery: no descriptor byte.
        let trigger = if version >= 4 && d.bool()? {
            let base_name = d.str()?;
            let base = TriggeredBase::parse(&base_name)
                .ok_or_else(|| ServeError::Format(format!("unknown trigger base {base_name:?}")))?;
            let spec = d.str()?;
            TriggerSpec::parse(&spec)
                .map_err(|e| ServeError::Format(format!("bad trigger spec {spec:?}: {e}")))?;
            Some(TriggerDesc { base, spec })
        } else {
            None
        };
        Ok(ModelMeta {
            algo,
            dataset,
            vars,
            train_len,
            class_names,
            prior_label,
            generation,
            trigger,
        })
    }
}

/// A fitted model in one of its sixteen persistable shapes: each of
/// the five univariate algorithms either plain or wrapped in the
/// multivariate voting adapter, the three natively-multivariate
/// STRUT variants, plus the three trigger-wrapped snapshot ensembles.
// One value exists per serving process, so the size spread between the
// MLSTM variant and the rest is irrelevant — not worth boxing.
#[allow(clippy::large_enum_variant)]
pub enum SavedModel {
    /// ECEC on univariate data.
    Ecec(Ecec),
    /// ECEC voting per variable.
    EcecVoting(VotingAdapter<Ecec>),
    /// ECONOMY-K on univariate data.
    EcoK(EconomyK),
    /// ECONOMY-K voting per variable.
    EcoKVoting(VotingAdapter<EconomyK>),
    /// ECTS on univariate data.
    Ects(Ects),
    /// ECTS voting per variable.
    EctsVoting(VotingAdapter<Ects>),
    /// EDSC on univariate data.
    Edsc(Edsc),
    /// EDSC voting per variable.
    EdscVoting(VotingAdapter<Edsc>),
    /// TEASER on univariate data.
    Teaser(Teaser),
    /// TEASER voting per variable.
    TeaserVoting(VotingAdapter<Teaser>),
    /// STRUT + MiniROCKET.
    SMini(Strut<MiniRocketClassifier>),
    /// STRUT + MLSTM-FCN.
    SMlstm(Strut<MlstmClassifier>),
    /// STRUT + WEASEL(+MUSE).
    SWeasel(Strut<WeaselClassifier>),
    /// Trigger-wrapped MiniROCKET snapshot ensemble.
    TrigMini(TriggeredClassifier<MiniRocketClassifier>),
    /// Trigger-wrapped WEASEL snapshot ensemble.
    TrigWeasel(TriggeredClassifier<WeaselClassifier>),
    /// Trigger-wrapped MLSTM-FCN snapshot ensemble.
    TrigMlstm(TriggeredClassifier<MlstmClassifier>),
}

impl SavedModel {
    /// The model as the trait object every downstream consumer
    /// (sessions, replay, CLI) works against. `Sync` so replay's
    /// threads can share it.
    pub fn classifier(&self) -> &(dyn EarlyClassifier + Sync) {
        match self {
            SavedModel::Ecec(m) => m,
            SavedModel::EcecVoting(m) => m,
            SavedModel::EcoK(m) => m,
            SavedModel::EcoKVoting(m) => m,
            SavedModel::Ects(m) => m,
            SavedModel::EctsVoting(m) => m,
            SavedModel::Edsc(m) => m,
            SavedModel::EdscVoting(m) => m,
            SavedModel::Teaser(m) => m,
            SavedModel::TeaserVoting(m) => m,
            SavedModel::SMini(m) => m,
            SavedModel::SMlstm(m) => m,
            SavedModel::SWeasel(m) => m,
            SavedModel::TrigMini(m) => m,
            SavedModel::TrigWeasel(m) => m,
            SavedModel::TrigMlstm(m) => m,
        }
    }

    /// The fitted decision trigger, for the trigger-wrapped variants.
    pub fn fitted_trigger(&self) -> Option<&FittedTrigger> {
        match self {
            SavedModel::TrigMini(m) => m.trigger(),
            SavedModel::TrigWeasel(m) => m.trigger(),
            SavedModel::TrigMlstm(m) => m.trigger(),
            _ => None,
        }
    }

    /// Installs a trigger into a trigger-wrapped variant (the
    /// authoritative trigger-section load path and the serve-time
    /// override). No-op on plain models.
    pub fn install_trigger(&mut self, trigger: FittedTrigger) {
        match self {
            SavedModel::TrigMini(m) => m.set_trigger(trigger),
            SavedModel::TrigWeasel(m) => m.set_trigger(trigger),
            SavedModel::TrigMlstm(m) => m.set_trigger(trigger),
            _ => {}
        }
    }

    /// `true` when the payload is a voting adapter.
    fn is_voting(&self) -> bool {
        matches!(
            self,
            SavedModel::EcecVoting(_)
                | SavedModel::EcoKVoting(_)
                | SavedModel::EctsVoting(_)
                | SavedModel::EdscVoting(_)
                | SavedModel::TeaserVoting(_)
        )
    }

    fn encode(&self, e: &mut Encoder) -> Result<(), ServeError> {
        match self {
            SavedModel::Ecec(m) => m.encode_state(e),
            SavedModel::EcecVoting(a) => encode_voting(a, e, |m, e| {
                m.encode_state(e);
                Ok(())
            })?,
            SavedModel::EcoK(m) => m.encode_state(e)?,
            SavedModel::EcoKVoting(a) => encode_voting(a, e, |m, e| Ok(m.encode_state(e)?))?,
            SavedModel::Ects(m) => m.encode_state(e),
            SavedModel::EctsVoting(a) => encode_voting(a, e, |m, e| {
                m.encode_state(e);
                Ok(())
            })?,
            SavedModel::Edsc(m) => m.encode_state(e),
            SavedModel::EdscVoting(a) => encode_voting(a, e, |m, e| {
                m.encode_state(e);
                Ok(())
            })?,
            SavedModel::Teaser(m) => m.encode_state(e),
            SavedModel::TeaserVoting(a) => encode_voting(a, e, |m, e| {
                m.encode_state(e);
                Ok(())
            })?,
            SavedModel::SMini(m) => m.encode_state(e, |c, e| c.encode_state(e)),
            SavedModel::SMlstm(m) => m.encode_state(e, |c, e| c.encode_state(e)),
            SavedModel::SWeasel(m) => m.encode_state(e, |c, e| c.encode_state(e)),
            SavedModel::TrigMini(m) => m.encode_state(e, |c, e| c.encode_state(e)),
            SavedModel::TrigWeasel(m) => m.encode_state(e, |c, e| c.encode_state(e)),
            SavedModel::TrigMlstm(m) => m.encode_state(e, |c, e| c.encode_state(e)),
        }
        Ok(())
    }

    fn decode_triggered(base: TriggeredBase, d: &mut Decoder) -> Result<SavedModel, ServeError> {
        Ok(match base {
            TriggeredBase::MiniRocket => SavedModel::TrigMini(TriggeredClassifier::decode_state(
                d,
                MiniRocketClassifier::with_defaults,
                MiniRocketClassifier::decode_state,
            )?),
            TriggeredBase::Weasel => SavedModel::TrigWeasel(TriggeredClassifier::decode_state(
                d,
                WeaselClassifier::with_defaults,
                WeaselClassifier::decode_state,
            )?),
            TriggeredBase::Mlstm => SavedModel::TrigMlstm(TriggeredClassifier::decode_state(
                d,
                MlstmClassifier::with_defaults,
                MlstmClassifier::decode_state,
            )?),
        })
    }

    fn decode(algo: AlgoSpec, voting: bool, d: &mut Decoder) -> Result<SavedModel, ServeError> {
        // The `make` factories are only exercised on an explicit refit of
        // a loaded model; they use default configurations, while the
        // decoded voters/models carry the configuration they were trained
        // with.
        let model = match (algo, voting) {
            (AlgoSpec::Ecec, false) => SavedModel::Ecec(Ecec::decode_state(d)?),
            (AlgoSpec::Ecec, true) => SavedModel::EcecVoting(decode_voting(
                d,
                || Ecec::new(EcecConfig::default()),
                Ecec::decode_state,
            )?),
            (AlgoSpec::EcoK, false) => SavedModel::EcoK(EconomyK::decode_state(d)?),
            (AlgoSpec::EcoK, true) => SavedModel::EcoKVoting(decode_voting(
                d,
                || EconomyK::new(EconomyKConfig::default()),
                EconomyK::decode_state,
            )?),
            (AlgoSpec::Ects, false) => SavedModel::Ects(Ects::decode_state(d)?),
            (AlgoSpec::Ects, true) => SavedModel::EctsVoting(decode_voting(
                d,
                || Ects::new(EctsConfig { support: 0 }),
                Ects::decode_state,
            )?),
            (AlgoSpec::Edsc, false) => SavedModel::Edsc(Edsc::decode_state(d)?),
            (AlgoSpec::Edsc, true) => SavedModel::EdscVoting(decode_voting(
                d,
                || Edsc::new(EdscConfig::default()),
                Edsc::decode_state,
            )?),
            (AlgoSpec::Teaser, false) => SavedModel::Teaser(Teaser::decode_state(d)?),
            (AlgoSpec::Teaser, true) => SavedModel::TeaserVoting(decode_voting(
                d,
                || Teaser::new(TeaserConfig::default()),
                Teaser::decode_state,
            )?),
            (AlgoSpec::SMini, _) => SavedModel::SMini(Strut::decode_state(
                d,
                MiniRocketClassifier::with_defaults,
                MiniRocketClassifier::decode_state,
            )?),
            (AlgoSpec::SMlstm, _) => SavedModel::SMlstm(Strut::decode_state(
                d,
                MlstmClassifier::with_defaults,
                MlstmClassifier::decode_state,
            )?),
            (AlgoSpec::SWeasel, _) => SavedModel::SWeasel(Strut::decode_state(
                d,
                WeaselClassifier::with_defaults,
                WeaselClassifier::decode_state,
            )?),
        };
        Ok(model)
    }
}

fn scheme_tag(s: VotingScheme) -> u8 {
    match s {
        VotingScheme::Majority => 0,
        VotingScheme::Earliest => 1,
        VotingScheme::WeightedAccuracy => 2,
    }
}

fn scheme_from_tag(t: u8) -> Result<VotingScheme, CodecError> {
    match t {
        0 => Ok(VotingScheme::Majority),
        1 => Ok(VotingScheme::Earliest),
        2 => Ok(VotingScheme::WeightedAccuracy),
        other => Err(CodecError::Corrupt {
            detail: format!("unknown voting scheme tag {other}"),
        }),
    }
}

fn encode_voting<C: EarlyClassifier>(
    adapter: &VotingAdapter<C>,
    e: &mut Encoder,
    enc: impl Fn(&C, &mut Encoder) -> Result<(), ServeError>,
) -> Result<(), ServeError> {
    e.tag(scheme_tag(adapter.scheme()));
    e.usize(adapter.n_classes());
    e.f64s(adapter.weights());
    e.usize(adapter.voters().len());
    for voter in adapter.voters() {
        enc(voter, e)?;
    }
    Ok(())
}

fn decode_voting<C: EarlyClassifier>(
    d: &mut Decoder,
    make: impl Fn() -> C + Send + Sync + 'static,
    dec: impl Fn(&mut Decoder) -> Result<C, CodecError>,
) -> Result<VotingAdapter<C>, CodecError> {
    let scheme = scheme_from_tag(d.tag()?)?;
    let n_classes = d.usize()?;
    let weights = d.f64s()?;
    let n = d.usize()?;
    let mut voters = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        voters.push(dec(d)?);
    }
    Ok(VotingAdapter::from_fitted(
        make, scheme, voters, weights, n_classes,
    ))
}

/// A fitted model plus its serving metadata — the unit the store saves
/// and loads.
pub struct StoredModel {
    /// Serving metadata (algorithm, shape, class names).
    pub meta: ModelMeta,
    /// The fitted model.
    pub model: SavedModel,
}

impl StoredModel {
    /// The model as a trait object.
    pub fn classifier(&self) -> &(dyn EarlyClassifier + Sync) {
        self.model.classifier()
    }

    /// Serializes into the versioned container format: magic, version,
    /// then one CRC64-checksummed section each for the metadata and the
    /// model payload.
    ///
    /// # Errors
    /// [`ServeError::Model`] when the model's configuration cannot be
    /// persisted (e.g. an ECONOMY-K base other than naive Bayes).
    pub fn to_bytes(&self) -> Result<Vec<u8>, ServeError> {
        if self.meta.trigger.is_some() != self.model.fitted_trigger().is_some() {
            return Err(ServeError::Format(
                "metadata trigger descriptor and payload shape disagree".into(),
            ));
        }
        let mut e = Encoder::new();
        e.u64(MAGIC);
        e.u64(FORMAT_VERSION);
        let mut meta = Encoder::new();
        self.meta.encode(&mut meta);
        meta.bool(self.model.is_voting());
        write_section(&mut e, &meta.into_bytes());
        let mut payload = Encoder::new();
        self.model.encode(&mut payload)?;
        write_section(&mut e, &payload.into_bytes());
        // Trigger-wrapped models get a dedicated section for the fitted
        // trigger + calibration map, CRC-guarded independently of the
        // (much larger) snapshot payload. It is authoritative on load.
        if let Some(trigger) = self.model.fitted_trigger() {
            let mut t = Encoder::new();
            encode_trigger(&mut t, trigger);
            write_section(&mut e, &t.into_bytes());
        }
        Ok(e.into_bytes())
    }

    /// Writes the model file at `path` crash-consistently: the bytes go
    /// to a temp file first, the previous model (if any) is kept as
    /// `<name>.prev` — the last-good copy [`load_resilient`] falls back
    /// to — and the temp file is renamed into place.
    ///
    /// The primary file is never absent or partial at any point: the
    /// `.prev` copy is staged through its own temp file and both
    /// updates land via rename, so a concurrent [`load_resilient`]
    /// always reads either the old version or the new one — never a
    /// missing file or a torn write.
    ///
    /// # Errors
    /// Encoding or filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ServeError> {
        let path = path.as_ref();
        let bytes = self.to_bytes()?;
        let tmp = sibling(path, "tmp");
        std::fs::write(&tmp, &bytes)?;
        if path.exists() {
            // Demote the current model by *copy*, not by moving it:
            // renaming the primary away would leave a window where a
            // concurrent reader finds no file at all.
            let prev_tmp = sibling(path, "prev.tmp");
            std::fs::copy(path, &prev_tmp)?;
            std::fs::rename(&prev_tmp, sibling(path, "prev"))?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Decodes the container format, verifying each section's CRC64
    /// before touching its contents.
    ///
    /// # Errors
    /// Wrong magic/version, unknown algorithm, checksum mismatch, or
    /// payload corruption.
    pub fn from_bytes(bytes: &[u8]) -> Result<StoredModel, ServeError> {
        let mut d = Decoder::new(bytes);
        let magic = d.u64()?;
        if magic != MAGIC {
            return Err(ServeError::Format(
                "not an etsc model file (bad magic)".into(),
            ));
        }
        let version = d.u64()?;
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(ServeError::Format(format!(
                "model format version {version} is not supported (this build reads \
                 {MIN_FORMAT_VERSION}..={FORMAT_VERSION})"
            )));
        }
        let meta_bytes = read_section(&mut d, "meta")?;
        let mut md = Decoder::new(meta_bytes);
        let meta = ModelMeta::decode(&mut md, version)?;
        let voting = md.bool()?;
        if !md.is_exhausted() {
            return Err(ServeError::Format(format!(
                "{} trailing bytes after the model metadata",
                md.remaining()
            )));
        }
        if voting && !meta.algo.univariate_only() {
            return Err(ServeError::Format(format!(
                "{} is natively multivariate; a voting payload is inconsistent",
                meta.algo.name()
            )));
        }
        let payload = read_section(&mut d, "payload")?;
        let mut pd = Decoder::new(payload);
        let mut model = match &meta.trigger {
            Some(desc) => SavedModel::decode_triggered(desc.base, &mut pd)?,
            None => SavedModel::decode(meta.algo, voting, &mut pd)?,
        };
        if !pd.is_exhausted() {
            return Err(ServeError::Format(format!(
                "{} trailing bytes inside the model payload section",
                pd.remaining()
            )));
        }
        if meta.trigger.is_some() {
            // The dedicated trigger section is authoritative: decode it
            // under its own CRC and install it over whatever the payload
            // carried.
            let trigger_bytes = read_section(&mut d, "trigger")?;
            let mut td = Decoder::new(trigger_bytes);
            let trigger = decode_trigger(&mut td)?;
            if !td.is_exhausted() {
                return Err(ServeError::Format(format!(
                    "{} trailing bytes inside the trigger section",
                    td.remaining()
                )));
            }
            model.install_trigger(trigger);
        }
        if !d.is_exhausted() {
            return Err(ServeError::Format(format!(
                "{} trailing bytes after the model payload",
                d.remaining()
            )));
        }
        Ok(StoredModel { meta, model })
    }

    /// Reads a model file written by [`StoredModel::save`].
    ///
    /// # Errors
    /// Filesystem or decoding failures.
    pub fn load(path: impl AsRef<Path>) -> Result<StoredModel, ServeError> {
        let bytes = std::fs::read(path.as_ref())?;
        StoredModel::from_bytes(&bytes)
    }
}

/// `len · bytes · crc64` — one checksummed container section.
fn write_section(e: &mut Encoder, bytes: &[u8]) {
    e.usize(bytes.len());
    e.raw(bytes);
    e.u64(crc64(bytes));
}

/// Reads and CRC-verifies one container section, returning its bytes.
fn read_section<'a>(d: &mut Decoder<'a>, section: &'static str) -> Result<&'a [u8], ServeError> {
    let len = d.usize()?;
    if len > d.remaining() {
        return Err(ServeError::Format(format!(
            "{section} section claims {len} bytes but only {} remain",
            d.remaining()
        )));
    }
    let bytes = d.raw(len, "section bytes")?;
    let expected = d.u64()?;
    if crc64(bytes) != expected {
        return Err(ServeError::Checksum { section });
    }
    Ok(bytes)
}

/// `model.bin` → `model.bin.<suffix>` (the full file name is kept, so
/// `.prev`/`.quarantine`/`.tmp` siblings never collide with a real
/// model's extension).
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("model"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".");
    name.push(suffix);
    path.with_file_name(name)
}

/// What [`load_resilient`] did to produce a servable model.
pub struct LoadOutcome {
    /// The loaded (or recovered) model.
    pub model: StoredModel,
    /// `true` when the primary file was corrupt and the `.prev`
    /// last-good copy is being served instead.
    pub recovered_from_prev: bool,
    /// Where the corrupt primary file was quarantined, if it was.
    pub quarantined: Option<PathBuf>,
    /// Human-readable descriptions of everything degraded about this
    /// load; empty on a clean load.
    pub warnings: Vec<String>,
}

/// Loads `path`, degrading gracefully on corruption: a file that fails
/// to decode (checksum mismatch, truncation, bad payload) is renamed to
/// `<name>.quarantine` — preserving the evidence while making room for
/// a healthy rewrite — and the `<name>.prev` last-good copy written by
/// [`StoredModel::save`] is served instead, with warnings describing
/// the degradation.
///
/// # Errors
/// Filesystem failures (including a missing primary file) are
/// propagated as-is; decode failures are propagated only when no
/// usable `.prev` fallback exists.
pub fn load_resilient(path: impl AsRef<Path>) -> Result<LoadOutcome, ServeError> {
    let path = path.as_ref();
    let primary = match StoredModel::load(path) {
        Ok(model) => {
            return Ok(LoadOutcome {
                model,
                recovered_from_prev: false,
                quarantined: None,
                warnings: Vec::new(),
            })
        }
        // A missing or unreadable file is an operator error, not
        // corruption — nothing to quarantine.
        Err(ServeError::Io(e)) => return Err(ServeError::Io(e)),
        Err(e) => e,
    };
    let mut warnings = vec![format!(
        "model {} failed to load: {primary}",
        path.display()
    )];
    let quarantine = sibling(path, "quarantine");
    let quarantined = match std::fs::rename(path, &quarantine) {
        Ok(()) => {
            warnings.push(format!(
                "quarantined the corrupt file as {}",
                quarantine.display()
            ));
            Some(quarantine)
        }
        Err(e) => {
            warnings.push(format!("could not quarantine {}: {e}", path.display()));
            None
        }
    };
    let prev = sibling(path, "prev");
    match StoredModel::load(&prev) {
        Ok(model) => {
            warnings.push(format!(
                "serving the last-good model from {}",
                prev.display()
            ));
            Ok(LoadOutcome {
                model,
                recovered_from_prev: true,
                quarantined,
                warnings,
            })
        }
        Err(_) => Err(primary),
    }
}

/// Replicates the model at `src` to every destination path, for
/// fanning one versioned store entry out to a shard fleet: the source
/// is read once, integrity-verified through a full decode (a corrupt
/// master must not be replicated), and each destination is written
/// with [`StoredModel::save`]'s crash-consistent discipline — so every
/// replica also gains a `.prev` last-good copy when it overwrites an
/// older version.
///
/// # Errors
/// Filesystem failures, or a source that fails integrity verification.
pub fn replicate(
    src: impl AsRef<Path>,
    dests: &[impl AsRef<Path>],
) -> Result<StoredModel, ServeError> {
    let src = src.as_ref();
    let model = StoredModel::load(src)?;
    for dest in dests {
        let dest = dest.as_ref();
        if dest == src {
            continue;
        }
        model.save(dest)?;
    }
    Ok(model)
}

/// Trains `algo` on `data` with the concrete types the store can
/// persist — the same construction rules as
/// [`AlgoSpec::build`] (voting adapter on multivariate data, TEASER's
/// dataset-dependent `S`, S-MLSTM's fixed truncation grid).
///
/// # Errors
/// Training failures, including budget DNFs.
pub fn fit_model(
    algo: AlgoSpec,
    data: &Dataset,
    config: &RunConfig,
) -> Result<StoredModel, ServeError> {
    let multivariate = data.vars() > 1;
    let teaser_s = if data.name() == "Biological" || data.name() == "Maritime" {
        config.teaser_prefixes_new
    } else {
        config.teaser_prefixes_ucr
    };
    let c = config.clone();
    let model = match algo {
        AlgoSpec::Ecec => fit_univariate(
            data,
            multivariate,
            move || Ecec::new(c.ecec_config()),
            SavedModel::Ecec,
            SavedModel::EcecVoting,
        )?,
        AlgoSpec::EcoK => fit_univariate(
            data,
            multivariate,
            move || EconomyK::new(c.economy_config()),
            SavedModel::EcoK,
            SavedModel::EcoKVoting,
        )?,
        AlgoSpec::Ects => fit_univariate(
            data,
            multivariate,
            || Ects::new(EctsConfig { support: 0 }),
            SavedModel::Ects,
            SavedModel::EctsVoting,
        )?,
        AlgoSpec::Edsc => fit_univariate(
            data,
            multivariate,
            move || Edsc::new(c.edsc_config()),
            SavedModel::Edsc,
            SavedModel::EdscVoting,
        )?,
        AlgoSpec::Teaser => fit_univariate(
            data,
            multivariate,
            move || Teaser::new(c.teaser_config(teaser_s)),
            SavedModel::Teaser,
            SavedModel::TeaserVoting,
        )?,
        AlgoSpec::SMini => {
            let mut m = Strut::s_mini_with(
                c.strut_config(),
                etsc_core::full::MiniRocketClassifierConfig {
                    transform: c.minirocket_config(),
                    ..etsc_core::full::MiniRocketClassifierConfig::default()
                },
            );
            m.fit(data)?;
            SavedModel::SMini(m)
        }
        AlgoSpec::SMlstm => {
            let mut m = Strut::s_mlstm_with(
                etsc_core::StrutConfig {
                    search: etsc_core::TruncationSearch::FixedGrid(vec![
                        0.05, 0.2, 0.4, 0.6, 0.8, 1.0,
                    ]),
                    ..c.strut_config()
                },
                etsc_core::full::MlstmClassifierConfig {
                    network: c.mlstm_config(),
                    lstm_grid: c.mlstm_lstm_grid.clone(),
                },
            );
            m.fit(data)?;
            SavedModel::SMlstm(m)
        }
        AlgoSpec::SWeasel => {
            let mut m = Strut::s_weasel_with(
                c.strut_config(),
                etsc_core::full::WeaselClassifierConfig {
                    weasel: c.weasel_config(),
                    logistic: c.logistic_config(),
                },
            );
            m.fit(data)?;
            SavedModel::SWeasel(m)
        }
    };
    Ok(StoredModel {
        meta: ModelMeta {
            algo,
            dataset: data.name().to_owned(),
            vars: data.vars(),
            train_len: data.max_len(),
            class_names: data.class_names().to_vec(),
            prior_label: majority_label(data),
            generation: 1,
            trigger: None,
        },
        model,
    })
}

/// The STRUT slot a trigger-wrapped model's [`ModelMeta::algo`] holds —
/// the nearest `AlgoSpec` relative, so version-agnostic consumers
/// (batch sizing, display fallbacks) keep working.
fn pseudo_slot(base: TriggeredBase) -> AlgoSpec {
    match base {
        TriggeredBase::MiniRocket => AlgoSpec::SMini,
        TriggeredBase::Weasel => AlgoSpec::SWeasel,
        TriggeredBase::Mlstm => AlgoSpec::SMlstm,
    }
}

/// Trains a trigger-wrapped snapshot ensemble of `base` under `spec`,
/// with the base hyper-parameters derived from `config` exactly as the
/// evaluation matrix derives them — the `train --trigger` path.
///
/// # Errors
/// Training failures.
pub fn fit_triggered_model(
    base: TriggeredBase,
    spec: &TriggerSpec,
    data: &Dataset,
    config: &RunConfig,
) -> Result<StoredModel, ServeError> {
    let tcfg = TriggeredConfig {
        seed: config.seed,
        ..TriggeredConfig::default()
    };
    let c = config.clone();
    let model = match base {
        TriggeredBase::MiniRocket => {
            let mut m = TriggeredClassifier::new(base.name(), tcfg, spec.clone(), move || {
                MiniRocketClassifier::new(MiniRocketClassifierConfig {
                    transform: c.minirocket_config(),
                    ..MiniRocketClassifierConfig::default()
                })
            });
            m.fit(data)?;
            SavedModel::TrigMini(m)
        }
        TriggeredBase::Weasel => {
            let mut m = TriggeredClassifier::new(base.name(), tcfg, spec.clone(), move || {
                WeaselClassifier::new(WeaselClassifierConfig {
                    weasel: c.weasel_config(),
                    logistic: c.logistic_config(),
                })
            });
            m.fit(data)?;
            SavedModel::TrigWeasel(m)
        }
        TriggeredBase::Mlstm => {
            let mut m = TriggeredClassifier::new(base.name(), tcfg, spec.clone(), move || {
                MlstmClassifier::new(MlstmClassifierConfig {
                    network: c.mlstm_config(),
                    lstm_grid: c.mlstm_lstm_grid.clone(),
                })
            });
            m.fit(data)?;
            SavedModel::TrigMlstm(m)
        }
    };
    Ok(StoredModel {
        meta: ModelMeta {
            algo: pseudo_slot(base),
            dataset: data.name().to_owned(),
            vars: data.vars(),
            train_len: data.max_len(),
            class_names: data.class_names().to_vec(),
            prior_label: majority_label(data),
            generation: 1,
            trigger: Some(TriggerDesc {
                base,
                spec: spec.canonical(),
            }),
        },
        model,
    })
}

/// Most frequent training label — the prior-class verdict a deadline
/// fallback commits to when a session must answer without a decision.
fn majority_label(data: &Dataset) -> usize {
    let mut counts = vec![0usize; data.n_classes()];
    for i in 0..data.len() {
        let label = data.label(i);
        if label < counts.len() {
            counts[label] += 1;
        }
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, c)| c)
        .map_or(0, |(label, _)| label)
}

fn fit_univariate<C: EarlyClassifier + Send + 'static>(
    data: &Dataset,
    multivariate: bool,
    make: impl Fn() -> C + Send + Sync + 'static,
    plain: impl FnOnce(C) -> SavedModel,
    voting: impl FnOnce(VotingAdapter<C>) -> SavedModel,
) -> Result<SavedModel, ServeError> {
    if multivariate {
        let mut adapter = VotingAdapter::new(make);
        adapter.fit(data)?;
        Ok(voting(adapter))
    } else {
        let mut model = make();
        model.fit(data)?;
        Ok(plain(model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etsc_datasets::{GenOptions, PaperDataset};

    fn tiny_config() -> RunConfig {
        RunConfig {
            folds: 2,
            ecec_prefixes: 4,
            teaser_prefixes_ucr: 4,
            teaser_prefixes_new: 4,
            edsc_candidates: 60,
            weasel_features: 32,
            weasel_windows: 2,
            logistic_epochs: 10,
            minirocket_features: 84,
            mlstm_epochs: 1,
            mlstm_filters: [2, 3, 2],
            mlstm_lstm_grid: vec![2],
            ..RunConfig::default()
        }
    }

    fn tiny_dataset() -> Dataset {
        PaperDataset::PowerCons.generate(GenOptions {
            height_scale: 0.1,
            length_scale: 0.2,
            seed: 9,
        })
    }

    #[test]
    fn roundtrip_preserves_predictions_univariate() {
        let data = tiny_dataset();
        let stored = fit_model(AlgoSpec::Ects, &data, &tiny_config()).unwrap();
        let bytes = stored.to_bytes().unwrap();
        let loaded = StoredModel::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.meta, stored.meta);
        for inst in data.instances() {
            let a = stored.classifier().predict_early(inst).unwrap();
            let b = loaded.classifier().predict_early(inst).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn roundtrip_preserves_predictions_voting() {
        let data = PaperDataset::BasicMotions.generate(GenOptions {
            height_scale: 0.25,
            length_scale: 0.2,
            seed: 9,
        });
        assert!(data.vars() > 1);
        let stored = fit_model(AlgoSpec::Ects, &data, &tiny_config()).unwrap();
        assert!(stored.model.is_voting());
        let bytes = stored.to_bytes().unwrap();
        let loaded = StoredModel::from_bytes(&bytes).unwrap();
        for inst in data.instances() {
            let a = stored.classifier().predict_early(inst).unwrap();
            let b = loaded.classifier().predict_early(inst).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn save_and_load_file() {
        let dir = std::env::temp_dir().join("etsc-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ects.model");
        let data = tiny_dataset();
        let stored = fit_model(AlgoSpec::Ects, &data, &tiny_config()).unwrap();
        stored.save(&path).unwrap();
        let loaded = StoredModel::load(&path).unwrap();
        assert_eq!(loaded.meta.algo, AlgoSpec::Ects);
        assert_eq!(loaded.meta.class_names, data.class_names());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_and_truncation_are_rejected() {
        let data = tiny_dataset();
        let stored = fit_model(AlgoSpec::Ects, &data, &tiny_config()).unwrap();
        let mut bytes = stored.to_bytes().unwrap();
        assert!(matches!(
            StoredModel::from_bytes(&bytes[..bytes.len() - 3]),
            Err(ServeError::Codec(_))
        ));
        bytes[0] ^= 0xff;
        assert!(matches!(
            StoredModel::from_bytes(&bytes),
            Err(ServeError::Format(_))
        ));
    }

    #[test]
    fn triggered_model_roundtrips_with_trigger_section() {
        let data = tiny_dataset();
        let spec = TriggerSpec::parse("calibrated:cal=platt,threshold=0.7").unwrap();
        let stored =
            fit_triggered_model(TriggeredBase::Weasel, &spec, &data, &tiny_config()).unwrap();
        assert_eq!(stored.meta.algo_label(), "WEASEL+calibrated");
        assert!(stored.model.fitted_trigger().is_some());
        let bytes = stored.to_bytes().unwrap();
        let loaded = StoredModel::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.meta, stored.meta);
        assert_eq!(loaded.model.fitted_trigger(), stored.model.fitted_trigger());
        for inst in data.instances() {
            let a = stored.classifier().predict_early(inst).unwrap();
            let b = loaded.classifier().predict_early(inst).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn corrupt_trigger_section_is_a_checksum_error() {
        let data = tiny_dataset();
        let spec = TriggerSpec::parse("threshold:0.8").unwrap();
        let stored =
            fit_triggered_model(TriggeredBase::Weasel, &spec, &data, &tiny_config()).unwrap();
        let mut bytes = stored.to_bytes().unwrap();
        // The trigger section is last; flip a bit inside its CRC.
        let n = bytes.len();
        bytes[n - 4] ^= 0x01;
        assert!(matches!(
            StoredModel::from_bytes(&bytes),
            Err(ServeError::Checksum { section: "trigger" })
        ));
    }

    #[test]
    fn version_3_files_still_load_as_untriggered() {
        let data = tiny_dataset();
        let stored = fit_model(AlgoSpec::Ects, &data, &tiny_config()).unwrap();
        // Hand-roll a version-3 container: identical sections except
        // the meta carries no trigger descriptor byte.
        let mut e = Encoder::new();
        e.u64(MAGIC);
        e.u64(3);
        let mut meta = Encoder::new();
        meta.str(stored.meta.algo.name());
        meta.str(&stored.meta.dataset);
        meta.usize(stored.meta.vars);
        meta.usize(stored.meta.train_len);
        meta.usize(stored.meta.class_names.len());
        for name in &stored.meta.class_names {
            meta.str(name);
        }
        meta.usize(stored.meta.prior_label);
        meta.u64(stored.meta.generation);
        meta.bool(false); // voting
        write_section(&mut e, &meta.into_bytes());
        let mut payload = Encoder::new();
        stored.model.encode(&mut payload).unwrap();
        write_section(&mut e, &payload.into_bytes());
        let loaded = StoredModel::from_bytes(&e.into_bytes()).unwrap();
        assert_eq!(loaded.meta, stored.meta);
        assert!(loaded.meta.trigger.is_none());
        for inst in data.instances().iter().take(4) {
            let a = stored.classifier().predict_early(inst).unwrap();
            let b = loaded.classifier().predict_early(inst).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn newer_version_is_rejected() {
        let data = tiny_dataset();
        let stored = fit_model(AlgoSpec::Ects, &data, &tiny_config()).unwrap();
        let mut bytes = stored.to_bytes().unwrap();
        // The version field is the second u64.
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            StoredModel::from_bytes(&bytes),
            Err(ServeError::Format(_))
        ));
    }

    #[test]
    fn bit_flip_in_payload_is_a_checksum_error() {
        let data = tiny_dataset();
        let stored = fit_model(AlgoSpec::Ects, &data, &tiny_config()).unwrap();
        let mut bytes = stored.to_bytes().unwrap();
        // Flip a bit well inside the payload section, past the header
        // and the small metadata section.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            StoredModel::from_bytes(&bytes),
            Err(ServeError::Checksum { .. })
        ));
    }

    #[test]
    fn majority_label_is_recorded_as_prior() {
        let data = tiny_dataset();
        let stored = fit_model(AlgoSpec::Ects, &data, &tiny_config()).unwrap();
        assert!(stored.meta.prior_label < data.n_classes());
        let mut counts = vec![0usize; data.n_classes()];
        for i in 0..data.len() {
            counts[data.label(i)] += 1;
        }
        assert_eq!(
            counts[stored.meta.prior_label],
            *counts.iter().max().unwrap()
        );
    }

    #[test]
    fn save_keeps_previous_model_and_load_resilient_recovers() {
        let dir = std::env::temp_dir().join("etsc-serve-test-resilient");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ects.model");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(sibling(&path, "prev")).ok();
        std::fs::remove_file(sibling(&path, "quarantine")).ok();

        let data = tiny_dataset();
        let stored = fit_model(AlgoSpec::Ects, &data, &tiny_config()).unwrap();
        stored.save(&path).unwrap();
        // A clean load touches nothing.
        let clean = load_resilient(&path).unwrap();
        assert!(!clean.recovered_from_prev);
        assert!(clean.warnings.is_empty());

        // A second save retains the first as `.prev`.
        stored.save(&path).unwrap();
        assert!(sibling(&path, "prev").exists());

        // Corrupt the primary: load_resilient quarantines it and
        // serves the last-good copy.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let outcome = load_resilient(&path).unwrap();
        assert!(outcome.recovered_from_prev);
        assert_eq!(
            outcome.quarantined.as_deref(),
            Some(sibling(&path, "quarantine").as_path())
        );
        assert!(sibling(&path, "quarantine").exists());
        assert!(!path.exists());
        assert!(!outcome.warnings.is_empty());
        assert_eq!(outcome.model.meta, stored.meta);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_resilient_without_fallback_propagates_the_decode_error() {
        let dir = std::env::temp_dir().join("etsc-serve-test-nofallback");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ects.model");
        std::fs::write(&path, b"definitely not a model").unwrap();
        assert!(load_resilient(&path).is_err());
        // The corrupt file was still quarantined for inspection.
        assert!(sibling(&path, "quarantine").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
