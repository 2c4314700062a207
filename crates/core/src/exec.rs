//! The shared execution layer: one planner and one kernel cache behind
//! every front-end.
//!
//! The paper's run-time controller (Fig. 2) assumes a single spectral
//! engine whose approximation knobs are swapped cheaply at run time. This
//! module is that engine's planning half:
//!
//! * [`SpectralPlan`] fully describes a runnable configuration — FFT
//!   length, wavelet basis, [`ApproximationMode`], [`PruningPolicy`], and
//!   (for dynamic pruning) the calibration [`TrainingSet`] a design-time
//!   pass produced;
//! * [`KernelCache`] memoizes built kernels behind `Arc<dyn FftBackend>`,
//!   so each distinct plan key is constructed **once** (twiddle tables,
//!   WFFT plans, dynamic-threshold calibrations) and shared by every
//!   consumer — batch [`crate::PsaSystem`], the streaming engine, the
//!   online controller's per-window switches, and every shard of a fleet.
//!
//! Both the batch and streaming front-ends build through this layer, so a
//! controller switch is a cache lookup, not a kernel construction.

use crate::calibrate::training_meshes;
use crate::config::{ApproximationMode, BackendChoice, PruningPolicy, PsaConfig};
use crate::energy::NodeModel;
use crate::error::PsaError;
use crate::govern::CandidatePoint;
use crate::quality::OperatingChoice;
use crate::sync::lock_unpoisoned;
use hrv_dsp::{BlockOps, Cx, FftBackend, OpCount, SplitRadixFft, Window};
use hrv_ecg::RrSeries;
use hrv_lomb::{blocks, FastLomb, LombFft, LombScratch, MeshStrategy};
use hrv_node_sim::OperatingPoint;
use hrv_wavelet::WaveletBasis;
use hrv_wfft::{PrunedWfft, WaveletFftBackend, WfftPlan};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What kind of FFT kernel a plan (or an operating choice) stands for.
///
/// This is the structural half of a [`PlanKey`]: two consumers that map to
/// the same `KernelSpec` (and, for dynamic pruning, the same calibration
/// fingerprint) share one built kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelSpec {
    /// The exact split-radix kernel (the conventional baseline, and the
    /// controller's exact fallback).
    Exact {
        /// Transform length.
        fft_len: usize,
    },
    /// The wavelet-based FFT with an approximation degree and policy.
    Wavelet {
        /// Transform length.
        fft_len: usize,
        /// Wavelet basis.
        basis: WaveletBasis,
        /// Approximation degree.
        mode: ApproximationMode,
        /// Static or dynamic pruning.
        policy: PruningPolicy,
    },
}

/// The full identity of a built kernel: its [`KernelSpec`] plus, for
/// dynamic pruning, a content fingerprint of the calibration corpus.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    spec: KernelSpec,
    /// Fingerprint of the training meshes a dynamic kernel was calibrated
    /// on (0 for static/exact kernels, which need none).
    calibration: u64,
}

impl PlanKey {
    /// The structural kernel description.
    pub fn spec(&self) -> KernelSpec {
        self.spec
    }
}

/// The calibration corpus for dynamic-pruning kernels: the packed complex
/// FFT-input meshes a design-time pass extracted (see
/// [`crate::training_meshes`]), plus a content fingerprint so two plans
/// calibrated on the same cohort share cached kernels.
#[derive(Clone, Debug)]
pub struct TrainingSet {
    meshes: Vec<Vec<Cx>>,
    fingerprint: u64,
}

impl TrainingSet {
    /// Wraps already-extracted training meshes.
    ///
    /// # Panics
    ///
    /// Panics if `meshes` is empty (an empty corpus cannot calibrate
    /// anything).
    pub fn new(meshes: Vec<Vec<Cx>>) -> Self {
        assert!(!meshes.is_empty(), "training set needs at least one mesh");
        let fingerprint = fingerprint_meshes(&meshes);
        TrainingSet {
            meshes,
            fingerprint,
        }
    }

    /// Extracts the per-window training meshes `config` implies from a
    /// cohort of RR recordings.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::TooFewSamples`] when no window in the cohort
    /// has enough RR samples.
    pub fn from_cohort(config: &PsaConfig, cohort: &[RrSeries]) -> Result<Self, PsaError> {
        Ok(Self::new(training_meshes(config, cohort)?))
    }

    /// The calibration meshes.
    pub fn meshes(&self) -> &[Vec<Cx>] {
        &self.meshes
    }

    /// Content fingerprint (FNV-1a over the mesh bit patterns).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// FNV-1a over the bit patterns of every mesh value: deterministic and
/// content-based, so identical cohorts share cached dynamic kernels.
fn fingerprint_meshes(meshes: &[Vec<Cx>]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |bits: u64| {
        h ^= bits;
        h = h.wrapping_mul(0x100000001b3);
    };
    mix(meshes.len() as u64);
    for mesh in meshes {
        mix(mesh.len() as u64);
        for z in mesh {
            mix(z.re.to_bits());
            mix(z.im.to_bits());
        }
    }
    h.max(1) // 0 is reserved for "no calibration"
}

/// A fully-described runnable configuration: the validated [`PsaConfig`]
/// plus the calibration corpus dynamic-pruning kernels need.
///
/// Both front-ends construct through a plan — `PsaSystem::from_plan` for
/// batch and `SlidingLomb::from_plan` (in `hrv-stream`) for streaming —
/// so their estimator and kernel wiring cannot drift apart.
///
/// # Examples
///
/// ```
/// use hrv_core::{KernelCache, PsaConfig, SpectralPlan};
///
/// let plan = SpectralPlan::new(PsaConfig::conventional())?;
/// let cache = KernelCache::new();
/// let a = cache.backend(&plan)?;
/// let b = cache.backend(&plan)?;
/// assert_eq!(cache.builds(), 1, "second lookup reuses the built kernel");
/// assert_eq!(a.name(), b.name());
/// # Ok::<(), hrv_core::PsaError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SpectralPlan {
    config: PsaConfig,
    training: Option<Arc<TrainingSet>>,
}

impl SpectralPlan {
    /// Plans a validated configuration (no calibration attached).
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::InvalidConfig`] for invalid parameters.
    pub fn new(config: PsaConfig) -> Result<Self, PsaError> {
        config.validate()?;
        Ok(SpectralPlan {
            config,
            training: None,
        })
    }

    /// Plans a configuration and extracts its calibration corpus from
    /// `cohort`, so dynamic-pruning kernels can be built.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::InvalidConfig`] for invalid parameters, or
    /// [`PsaError::TooFewSamples`] when the cohort yields no usable
    /// windows.
    pub fn calibrated(config: PsaConfig, cohort: &[RrSeries]) -> Result<Self, PsaError> {
        config.validate()?;
        let training = Arc::new(TrainingSet::from_cohort(&config, cohort)?);
        Ok(SpectralPlan {
            config,
            training: Some(training),
        })
    }

    /// Attaches an already-extracted (possibly shared) training set.
    pub fn with_training(mut self, training: Arc<TrainingSet>) -> Self {
        self.training = Some(training);
        self
    }

    /// The planned configuration.
    pub fn config(&self) -> &PsaConfig {
        &self.config
    }

    /// The attached calibration corpus, if any.
    pub fn training(&self) -> Option<&TrainingSet> {
        self.training.as_deref()
    }

    /// FFT/mesh length of the plan.
    pub fn fft_len(&self) -> usize {
        self.config.fft_len
    }

    /// The wavelet basis approximate kernels use (Haar when the base
    /// configuration is split-radix, matching the paper's final choice).
    pub fn basis(&self) -> WaveletBasis {
        match self.config.backend {
            BackendChoice::Wavelet { basis, .. } => basis,
            BackendChoice::SplitRadix => WaveletBasis::Haar,
        }
    }

    /// `true` when the base configuration demands a dynamic-pruning kernel
    /// but no training set is attached.
    pub fn requires_calibration(&self) -> bool {
        self.training.is_none()
            && matches!(
                self.config.backend,
                BackendChoice::Wavelet {
                    policy: PruningPolicy::Dynamic,
                    ..
                }
            )
    }

    /// The Fast-Lomb estimator this plan implies. Batch, streaming, the
    /// cost probe and the calibration pass ([`crate::training_meshes`])
    /// all build through this one config→estimator mapping.
    pub fn estimator(&self) -> FastLomb {
        let estimator = FastLomb::new(self.config.fft_len, self.config.ofac)
            .with_window(self.config.window)
            .with_max_freq(self.config.max_freq);
        match self.config.mesh {
            MeshStrategy::Extirpolate { order } => estimator.with_order(order),
            MeshStrategy::Resample => estimator.with_resampled_mesh(),
        }
    }

    /// The kernel the base configuration stands for.
    pub fn base_spec(&self) -> KernelSpec {
        match self.config.backend {
            BackendChoice::SplitRadix => KernelSpec::Exact {
                fft_len: self.config.fft_len,
            },
            BackendChoice::Wavelet {
                basis,
                mode,
                policy,
            } => KernelSpec::Wavelet {
                fft_len: self.config.fft_len,
                basis,
                mode,
                policy,
            },
        }
    }

    /// The kernel an [`OperatingChoice`] stands for under this plan. A
    /// choice in `Exact` mode maps to the split-radix kernel (the
    /// controller's exact fallback), regardless of policy.
    pub fn spec_for_choice(&self, choice: &OperatingChoice) -> KernelSpec {
        if choice.mode == ApproximationMode::Exact {
            KernelSpec::Exact {
                fft_len: self.config.fft_len,
            }
        } else {
            KernelSpec::Wavelet {
                fft_len: self.config.fft_len,
                basis: self.basis(),
                mode: choice.mode,
                policy: choice.policy,
            }
        }
    }

    /// The cache key of a kernel spec under this plan's calibration.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::MissingCalibration`] for a dynamic spec when no
    /// training set is attached.
    pub fn key_for(&self, spec: KernelSpec) -> Result<PlanKey, PsaError> {
        let calibration = match spec {
            KernelSpec::Wavelet {
                policy: PruningPolicy::Dynamic,
                mode,
                ..
            } => self
                .training
                .as_ref()
                .map(|t| t.fingerprint())
                .ok_or(PsaError::MissingCalibration { mode })?,
            _ => 0,
        };
        Ok(PlanKey { spec, calibration })
    }
}

/// Content fingerprint of the estimator-relevant half of a [`PsaConfig`]
/// (everything but the backend): the memoization key of a probe window,
/// which depends on the mesh/window wiring, not on which kernel runs it.
fn fingerprint_config(config: &PsaConfig) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |bits: u64| {
        h ^= bits;
        h = h.wrapping_mul(0x100000001b3);
    };
    mix(config.fft_len as u64);
    mix(config.ofac.to_bits());
    mix(config.window_duration.to_bits());
    mix(config.overlap.to_bits());
    mix(config.max_freq.to_bits());
    mix(match config.window {
        Window::Rectangular => 0,
        Window::Hann => 1,
        Window::Hamming => 2,
        Window::Welch => 3,
    });
    match config.mesh {
        MeshStrategy::Extirpolate { order } => {
            mix(1);
            mix(order as u64);
        }
        MeshStrategy::Resample => mix(2),
    }
    h
}

/// A deterministic probe window: ≈ 70 bpm RR intervals with respiratory
/// (0.25 Hz) and low-frequency (0.1 Hz) modulation, spanning one analysis
/// window — representative of the beat density the estimator sees, so
/// per-window operation counts probed on it match live windows closely.
fn probe_window(duration: f64) -> (Vec<f64>, Vec<f64>) {
    use std::f64::consts::TAU;
    let (mut times, mut values) = (Vec::new(), Vec::new());
    let mut t = 0.0;
    loop {
        let rr = 0.85 + 0.05 * (TAU * 0.25 * t).sin() + 0.02 * (TAU * 0.1 * t).sin();
        t += rr;
        if t >= duration {
            break;
        }
        times.push(t);
        values.push(rr);
    }
    (times, values)
}

/// The kernel-independent half of a cost profile: one probe window run
/// through the streaming engine's window routine, its meshes retained so
/// each kernel's FFT cost can be measured on demand.
#[derive(Debug)]
struct ProfileData {
    hop_s: f64,
    /// The window routine, planned as the streaming engine plans it.
    lomb: LombFft,
    /// The probe window's meshes and statistics.
    probe: LombScratch,
    /// Non-FFT per-window ops (prepare + mesh + Lomb combine).
    base_ops: OpCount,
    /// Per-kernel FFT op tallies on the probe meshes, keyed by spec.
    fft_ops: Mutex<HashMap<KernelSpec, OpCount>>,
}

impl ProfileData {
    /// Runs the probe window with `exact` as the FFT kernel; only the
    /// non-FFT blocks are kept, since `predict` tallies the FFT per kernel.
    fn new(plan: &SpectralPlan, exact: &dyn FftBackend) -> Self {
        let config = plan.config();
        let lomb = LombFft::new(plan.estimator().with_span(config.window_duration));
        let (times, values) = probe_window(config.window_duration);
        let mut probe = LombScratch::default();
        let mut profile = BlockOps::new();
        let window_ops = lomb.window(exact, &times, &values, &mut probe, &mut profile);
        let fft_ops = profile
            .get(blocks::FFT)
            .expect("the routine records its FFT");
        ProfileData {
            hop_s: config.window_duration * (1.0 - config.overlap),
            base_ops: window_ops.saturating_sub(fft_ops),
            lomb,
            probe,
            fft_ops: Mutex::new(HashMap::new()),
        }
    }
}

/// Per-window cost prediction for a plan's operating choices — the one
/// place `OpCount`→cycles→joules conversion lives for run-time layers.
///
/// Built through [`KernelCache::cost_profile`], which memoizes the probe
/// window per plan (and the per-kernel FFT measurements per spec), a
/// profile answers two questions:
///
/// * **accounting** — what does a window that spent `ops` cost at an
///   operating point ([`CostProfile::window_energy`]), and what does an
///   aggregate workload cost at nominal ([`CostProfile::energy`] — the
///   conversion fleet reports use, formerly re-derived ad hoc);
/// * **prediction** — what *will* a window cost under a given kernel
///   ([`CostProfile::predict`]), measured by running the kernel once on
///   the plan's probe meshes, so budget policies can rank
///   [`CandidatePoint`]s before any live sample arrives
///   ([`CostProfile::ladder`]).
///
/// # Examples
///
/// ```
/// use hrv_core::{KernelCache, NodeModel, PsaConfig, SpectralPlan};
///
/// let plan = SpectralPlan::new(PsaConfig::conventional())?;
/// let cache = KernelCache::new();
/// let profile = cache.cost_profile(&plan, &NodeModel::default());
/// let exact = cache.backend(&plan)?;
/// let predicted = profile.predict(plan.base_spec(), exact.as_ref());
/// assert!(predicted.arithmetic() > 0);
/// // Accounting and prediction share one conversion:
/// let per_window = profile.window_energy(&predicted, &profile.node().dvfs.nominal());
/// assert!(per_window > 0.0);
/// # Ok::<(), hrv_core::PsaError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CostProfile {
    node: NodeModel,
    data: Arc<ProfileData>,
}

impl CostProfile {
    /// The node model energy conversions run on.
    pub fn node(&self) -> &NodeModel {
        &self.node
    }

    /// Hop between window starts in seconds (the per-window leakage /
    /// harvest interval).
    pub fn hop_s(&self) -> f64 {
        self.data.hop_s
    }

    /// Cycles of an operation tally on this node.
    pub fn cycles(&self, ops: &OpCount) -> u64 {
        self.node.cost.cycles(ops)
    }

    /// Energy of one window that spent `ops` at `opp`, with leakage over
    /// one hop (joules).
    pub fn window_energy(&self, ops: &OpCount, opp: &OperatingPoint) -> f64 {
        self.node
            .energy
            .energy(ops, &self.node.cost, opp, self.data.hop_s)
            .total()
    }

    /// Energy of an aggregate workload of `ops` across `windows` windows
    /// at the nominal operating point (joules; leakage window =
    /// windows × hop). This is the conversion `FleetReport` publishes.
    pub fn energy(&self, ops: &OpCount, windows: u64) -> f64 {
        self.node
            .energy
            .energy(
                ops,
                &self.node.cost,
                &self.node.dvfs.nominal(),
                windows as f64 * self.data.hop_s,
            )
            .total()
    }

    /// Predicted per-window operation count with `backend` active: the
    /// probe window's non-FFT stages plus `backend`'s FFT of the probe
    /// meshes through the engine's own FFT block ([`LombFft`], so an
    /// exact kernel under the resampling front end is charged the
    /// half-length fast path). The FFT tally is memoized per `spec`.
    pub fn predict(&self, spec: KernelSpec, backend: &dyn FftBackend) -> OpCount {
        let mut memo = lock_unpoisoned(&self.data.fft_ops);
        let fft_ops = *memo.entry(spec).or_insert_with(|| {
            let (wk1, wk2) = self.data.probe.meshes();
            let (mut first, mut second) = (Vec::new(), Vec::new());
            let (mut packed, mut fft_scratch) = (Vec::new(), Vec::new());
            let mut ops = OpCount::default();
            self.data.lomb.transform(
                backend,
                wk1,
                wk2,
                &mut first,
                &mut second,
                &mut packed,
                &mut fft_scratch,
                &mut ops,
            );
            ops
        });
        self.data.base_ops + fft_ops
    }

    /// The budget candidate **ladder** of one choice: one
    /// [`CandidatePoint`] per discrete DVFS voltage that still meets the
    /// real-time deadline (the window's cycles must fit one hop —
    /// race-to-idle, so lower rails trade timing margin for V²·dynamic
    /// and V³·leakage savings while the arithmetic stays identical).
    /// Candidates of equal expected distortion are ordered by an
    /// [`crate::EnergyBudgetGovernor`] from highest to lowest energy, so
    /// a tightening budget walks the rail down before it degrades the
    /// kernel.
    pub fn ladder(
        &self,
        choice: Option<OperatingChoice>,
        spec: KernelSpec,
        backend: &dyn FftBackend,
    ) -> Vec<CandidatePoint> {
        let predicted = self.predict(spec, backend);
        let cycles = self.cycles(&predicted) as f64;
        let expected_error_pct = choice.map_or(0.0, |c| c.expected_error_pct);
        self.node
            .dvfs
            .ladder()
            .map(|v| self.node.dvfs.opp_at(v))
            .filter(|opp| cycles / opp.frequency <= self.data.hop_s)
            .map(|opp| CandidatePoint {
                choice,
                expected_error_pct,
                predicted_energy_j: self.window_energy(&predicted, &opp),
                opp,
            })
            .collect()
    }
}

/// One cached kernel plus its lookup accounting (mutated under the
/// `kernels` lock, so a plain integer suffices).
#[derive(Debug)]
struct CacheEntry {
    kernel: Arc<dyn FftBackend>,
    hits: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    kernels: Mutex<HashMap<PlanKey, CacheEntry>>,
    profiles: Mutex<HashMap<(u64, u64), Arc<ProfileData>>>,
    hits: AtomicU64,
    builds: AtomicU64,
}

/// A memoizing, thread-safe store of built FFT kernels.
///
/// Cloning a `KernelCache` yields another handle to the **same** cache, so
/// one cache can back a batch system, a streaming engine and every shard
/// of a fleet at once. A kernel is built at most once per [`PlanKey`]; all
/// later lookups (controller switches, fleet scale-up) return the shared
/// `Arc` — [`KernelCache::builds`] / [`KernelCache::hits`] make that
/// measurable.
///
/// # Examples
///
/// ```
/// use hrv_core::{ApproximationMode, KernelCache, PruningPolicy, PsaConfig, SpectralPlan};
/// use hrv_wavelet::WaveletBasis;
///
/// let plan = SpectralPlan::new(PsaConfig::proposed(
///     WaveletBasis::Haar,
///     ApproximationMode::BandDropSet3,
///     PruningPolicy::Static,
/// ))?;
/// let cache = KernelCache::new();
/// let kernel = cache.backend(&plan)?;
/// assert_eq!(kernel.name(), "wfft-haar+banddrop+prune60%");
/// assert_eq!((cache.builds(), cache.hits()), (1, 0));
/// let again = cache.backend(&plan)?;
/// assert_eq!((cache.builds(), cache.hits()), (1, 1));
/// # Ok::<(), hrv_core::PsaError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct KernelCache {
    inner: Arc<CacheInner>,
}

impl KernelCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The kernel of the plan's base configuration, built on first use.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::MissingCalibration`] when the base
    /// configuration demands dynamic pruning and the plan carries no
    /// training set.
    pub fn backend(&self, plan: &SpectralPlan) -> Result<Arc<dyn FftBackend>, PsaError> {
        self.resolve(plan, plan.base_spec())
    }

    /// The kernel an [`OperatingChoice`] stands for, so run-time
    /// controllers can switch to it — a cache lookup once warm.
    ///
    /// # Errors
    ///
    /// Returns [`PsaError::MissingCalibration`] for a dynamic-pruning
    /// choice when the plan carries no training set (previously a silent
    /// `None`; the misconfiguration is now diagnosable).
    pub fn backend_for_choice(
        &self,
        plan: &SpectralPlan,
        choice: &OperatingChoice,
    ) -> Result<Arc<dyn FftBackend>, PsaError> {
        self.resolve(plan, plan.spec_for_choice(choice))
    }

    /// The exact split-radix kernel of length `fft_len` (the controller's
    /// fallback and the audit reference), built on first use.
    pub fn exact(&self, fft_len: usize) -> Arc<dyn FftBackend> {
        let key = PlanKey {
            spec: KernelSpec::Exact { fft_len },
            calibration: 0,
        };
        self.get_or_build(key, || Arc::new(SplitRadixFft::new(fft_len)))
    }

    /// Resolves a spec to a built kernel under the plan's calibration.
    fn resolve(
        &self,
        plan: &SpectralPlan,
        spec: KernelSpec,
    ) -> Result<Arc<dyn FftBackend>, PsaError> {
        let key = plan.key_for(spec)?;
        Ok(self.get_or_build(key, || build_kernel(plan, spec)))
    }

    /// One locked lookup; the builder runs only on a miss.
    ///
    /// The lock is held across the build so concurrent shards asking for
    /// the same key never construct the kernel twice.
    fn get_or_build(
        &self,
        key: PlanKey,
        build: impl FnOnce() -> Arc<dyn FftBackend>,
    ) -> Arc<dyn FftBackend> {
        let mut kernels = lock_unpoisoned(&self.inner.kernels);
        if let Some(entry) = kernels.get_mut(&key) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            entry.hits += 1;
            return Arc::clone(&entry.kernel);
        }
        self.inner.builds.fetch_add(1, Ordering::Relaxed);
        let kernel = build();
        kernels.insert(
            key,
            CacheEntry {
                kernel: Arc::clone(&kernel),
                hits: 0,
            },
        );
        kernel
    }

    /// Number of kernels constructed so far (== cache misses).
    pub fn builds(&self) -> u64 {
        self.inner.builds.load(Ordering::Relaxed)
    }

    /// Number of lookups served from the cache without construction.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Number of distinct kernels currently cached.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner.kernels).len()
    }

    /// `true` when no kernel has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cost profile of a plan on `node` — the shared per-window
    /// prediction/accounting surface run-time layers (fleet energy
    /// charging, budget governors) convert operations through. The probe
    /// window is computed once per estimator configuration (and training
    /// fingerprint) and shared by every profile handle the cache returns,
    /// as are the per-kernel FFT probes.
    pub fn cost_profile(&self, plan: &SpectralPlan, node: &NodeModel) -> CostProfile {
        let key = (
            fingerprint_config(plan.config()),
            plan.training().map_or(0, |t| t.fingerprint()),
        );
        let data = {
            let mut profiles = lock_unpoisoned(&self.inner.profiles);
            Arc::clone(profiles.entry(key).or_insert_with(|| {
                let exact = self.exact(plan.fft_len());
                Arc::new(ProfileData::new(plan, exact.as_ref()))
            }))
        };
        CostProfile {
            node: node.clone(),
            data,
        }
    }

    /// Each cached kernel's `(backend name, cached plan variants, hits)`
    /// — the labeled per-backend view [`KernelCache::publish`] exposes.
    /// Two plans can resolve to distinct kernels with the same backend
    /// name (e.g. exact kernels of different lengths share one name);
    /// those aggregate, name-ordered for deterministic exposition.
    pub fn backend_stats(&self) -> Vec<(String, u64, u64)> {
        let kernels = lock_unpoisoned(&self.inner.kernels);
        let mut by_name: std::collections::BTreeMap<String, (u64, u64)> =
            std::collections::BTreeMap::new();
        for entry in kernels.values() {
            let slot = by_name.entry(entry.kernel.name().to_string()).or_default();
            slot.0 += 1;
            slot.1 += entry.hits;
        }
        by_name
            .into_iter()
            .map(|(name, (plans, hits))| (name, plans, hits))
            .collect()
    }

    /// Publishes the cache's construction accounting into a
    /// [`crate::Telemetry`] registry — the one reporting path the
    /// server, benches and examples share. Totals
    /// (`hrv_kernel_builds_total`, `hrv_kernel_hits_total`,
    /// `hrv_kernel_cache_kernels`) come with a per-backend breakdown:
    /// `hrv_kernel_cached_plans{kernel="..."}` (distinct cached plan
    /// variants resolving to that backend) and
    /// `hrv_kernel_backend_hits_total{kernel="..."}` (warm lookups it
    /// served) — so an operator can see *which* FFT backend the fleet's
    /// controllers actually chose, not just that the cache is warm.
    pub fn publish(&self, telemetry: &crate::Telemetry) {
        telemetry
            .counter(
                "hrv_kernel_builds_total",
                "FFT kernels constructed (cache misses)",
            )
            .set(self.builds());
        telemetry
            .counter(
                "hrv_kernel_hits_total",
                "kernel lookups served without construction",
            )
            .set(self.hits());
        telemetry
            .gauge(
                "hrv_kernel_cache_kernels",
                "distinct kernels currently cached",
            )
            .set(self.len() as f64);
        for (name, plans, hits) in self.backend_stats() {
            telemetry
                .gauge_with(
                    "hrv_kernel_cached_plans",
                    "distinct cached plan variants resolving to this backend",
                    &[("kernel", &name)],
                )
                .set(plans as f64);
            telemetry
                .counter_with(
                    "hrv_kernel_backend_hits_total",
                    "warm kernel lookups served, by backend",
                    &[("kernel", &name)],
                )
                .set(hits);
        }
    }
}

/// Constructs the kernel a spec describes. Dynamic specs calibrate their
/// run-time thresholds on the plan's training set; callers have already
/// verified (via [`SpectralPlan::key_for`]) that the set is present.
fn build_kernel(plan: &SpectralPlan, spec: KernelSpec) -> Arc<dyn FftBackend> {
    match spec {
        KernelSpec::Exact { fft_len } => Arc::new(SplitRadixFft::new(fft_len)),
        KernelSpec::Wavelet {
            fft_len,
            basis,
            mode,
            policy: PruningPolicy::Static,
        } => Arc::new(WaveletFftBackend::new(fft_len, basis, mode.prune_config())),
        KernelSpec::Wavelet {
            fft_len,
            basis,
            mode,
            policy: PruningPolicy::Dynamic,
        } => {
            let training = plan
                .training()
                .expect("dynamic kernels are keyed by an attached training set");
            let pruned = PrunedWfft::new(WfftPlan::new(fft_len, basis), mode.prune_config());
            let thresholds = pruned.calibrate_dynamic(training.meshes());
            Arc::new(WaveletFftBackend::from_pruned(
                pruned.with_dynamic(thresholds),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hrv_ecg::{Condition, SyntheticDatabase};

    fn choice(mode: ApproximationMode, policy: PruningPolicy) -> OperatingChoice {
        OperatingChoice {
            mode,
            policy,
            vfs: true,
            expected_error_pct: 4.0,
            expected_savings_pct: 50.0,
        }
    }

    fn cohort(n: usize) -> Vec<RrSeries> {
        let db = SyntheticDatabase::new(9);
        (0..n)
            .map(|i| db.record(i, Condition::SinusArrhythmia, 300.0).rr)
            .collect()
    }

    #[test]
    fn kernels_are_built_once_per_key() {
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("valid");
        let cache = KernelCache::new();
        let choices = [
            choice(ApproximationMode::Exact, PruningPolicy::Static),
            choice(ApproximationMode::BandDrop, PruningPolicy::Static),
            choice(ApproximationMode::BandDropSet3, PruningPolicy::Static),
        ];
        for c in &choices {
            cache.backend_for_choice(&plan, c).expect("buildable");
        }
        // Exact choice and the conventional base share one kernel.
        cache.backend(&plan).expect("base");
        assert_eq!(cache.builds(), 3);
        for _ in 0..10 {
            for c in &choices {
                cache.backend_for_choice(&plan, c).expect("cached");
            }
        }
        assert_eq!(cache.builds(), 3, "warm lookups must not build");
        assert!(cache.hits() >= 31);
        assert!(cache.hits() > 9 * cache.builds(), "hit rate above 90%");
        assert_eq!(cache.len(), 3);
        assert!(!cache.is_empty());
    }

    #[test]
    fn clones_share_one_store() {
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("valid");
        let cache = KernelCache::new();
        let handle = cache.clone();
        handle.backend(&plan).expect("base");
        assert_eq!(cache.builds(), 1);
        cache.backend(&plan).expect("cached via other handle");
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn dynamic_choice_without_training_is_a_typed_error() {
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("valid");
        let cache = KernelCache::new();
        let err = cache
            .backend_for_choice(
                &plan,
                &choice(ApproximationMode::BandDropSet2, PruningPolicy::Dynamic),
            )
            .unwrap_err();
        assert_eq!(
            err,
            PsaError::MissingCalibration {
                mode: ApproximationMode::BandDropSet2
            }
        );
        assert!(err.to_string().contains("training"));
    }

    #[test]
    fn calibrated_plan_builds_and_caches_dynamic_kernels() {
        let plan =
            SpectralPlan::calibrated(PsaConfig::conventional(), &cohort(2)).expect("calibrated");
        assert!(plan.training().is_some());
        let cache = KernelCache::new();
        let c = choice(ApproximationMode::BandDrop, PruningPolicy::Dynamic);
        let kernel = cache.backend_for_choice(&plan, &c).expect("calibrated");
        assert!(!kernel.is_exact());
        cache.backend_for_choice(&plan, &c).expect("cached");
        assert_eq!((cache.builds(), cache.hits()), (1, 1));
    }

    #[test]
    fn training_fingerprint_is_content_based() {
        let a = TrainingSet::from_cohort(&PsaConfig::conventional(), &cohort(2)).expect("meshes");
        let b = TrainingSet::from_cohort(&PsaConfig::conventional(), &cohort(2)).expect("meshes");
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "identical cohorts share kernels"
        );
        let c = TrainingSet::from_cohort(&PsaConfig::conventional(), &cohort(3)).expect("meshes");
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert!(!a.meshes().is_empty());
    }

    #[test]
    fn exact_choice_maps_to_split_radix_fallback() {
        let plan = SpectralPlan::new(PsaConfig::proposed(
            WaveletBasis::Haar,
            ApproximationMode::BandDropSet3,
            PruningPolicy::Static,
        ))
        .expect("valid");
        let cache = KernelCache::new();
        let exact = cache
            .backend_for_choice(
                &plan,
                &choice(ApproximationMode::Exact, PruningPolicy::Static),
            )
            .expect("exact");
        assert_eq!(exact.name(), "split-radix");
        // ...and it is the same kernel the explicit exact accessor returns.
        let again = cache.exact(512);
        assert_eq!(cache.builds(), 1);
        assert!(Arc::ptr_eq(&exact, &again));
    }

    #[test]
    fn plan_exposes_wiring() {
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("valid");
        assert_eq!(plan.fft_len(), 512);
        assert_eq!(plan.basis(), WaveletBasis::Haar);
        assert!(!plan.requires_calibration());
        assert_eq!(plan.base_spec(), KernelSpec::Exact { fft_len: 512 });
        assert_eq!(plan.estimator().fft_len(), 512);
        assert_eq!(
            plan.key_for(plan.base_spec()).expect("static key").spec(),
            plan.base_spec()
        );

        let dynamic = SpectralPlan::new(PsaConfig::proposed(
            WaveletBasis::Db2,
            ApproximationMode::BandDrop,
            PruningPolicy::Dynamic,
        ))
        .expect("valid");
        assert!(dynamic.requires_calibration());
        assert_eq!(dynamic.basis(), WaveletBasis::Db2);
        assert!(matches!(
            dynamic.key_for(dynamic.base_spec()),
            Err(PsaError::MissingCalibration { .. })
        ));
    }

    #[test]
    fn configured_extirpolation_order_reaches_the_estimator() {
        let config = |order| PsaConfig {
            mesh: MeshStrategy::Extirpolate { order },
            ..PsaConfig::conventional()
        };
        let plan = SpectralPlan::new(config(2)).expect("valid");
        assert_eq!(
            plan.estimator().mesh_strategy(),
            MeshStrategy::Extirpolate { order: 2 }
        );
        // The calibration pass runs the same estimator, so its meshes
        // depend on the order too.
        let order2 = TrainingSet::from_cohort(&config(2), &cohort(1)).expect("meshes");
        let order4 = TrainingSet::from_cohort(&config(4), &cohort(1)).expect("meshes");
        assert_ne!(order2.fingerprint(), order4.fingerprint());
        for order in [0, 513] {
            assert!(matches!(
                SpectralPlan::new(config(order)),
                Err(PsaError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn publish_mirrors_cache_counters_into_telemetry() {
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("valid");
        let cache = KernelCache::new();
        let name = cache.backend(&plan).expect("base").name().to_string();
        cache.backend(&plan).expect("cached");
        let telemetry = crate::Telemetry::new();
        cache.publish(&telemetry);
        let text = telemetry.render();
        assert!(text.contains("hrv_kernel_builds_total 1"));
        assert!(text.contains("hrv_kernel_hits_total 1"));
        assert!(text.contains("hrv_kernel_cache_kernels 1"));
        // The per-backend breakdown names the chosen kernel.
        assert!(text.contains(&format!("hrv_kernel_cached_plans{{kernel=\"{name}\"}} 1")));
        assert!(text.contains(&format!(
            "hrv_kernel_backend_hits_total{{kernel=\"{name}\"}} 1"
        )));
        crate::validate_exposition(&text).expect("conformant");
    }

    #[test]
    fn backend_stats_aggregate_same_named_kernels() {
        let cache = KernelCache::new();
        // Two exact kernels of different lengths share a backend name
        // family only if their names collide; regardless, stats must
        // account every cached kernel exactly once.
        cache.exact(256);
        cache.exact(512);
        cache.exact(256); // warm hit
        let stats = cache.backend_stats();
        let plans: u64 = stats.iter().map(|(_, p, _)| p).sum();
        let hits: u64 = stats.iter().map(|(_, _, h)| h).sum();
        assert_eq!(plans, 2, "two distinct cached kernels");
        assert_eq!(hits, 1, "one warm lookup");
        let names: Vec<&str> = stats.iter().map(|(n, _, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "deterministic name order");
    }

    #[test]
    fn execution_layer_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KernelCache>();
        assert_send_sync::<SpectralPlan>();
        assert_send_sync::<TrainingSet>();
        assert_send_sync::<CostProfile>();
        assert_send_sync::<Arc<dyn FftBackend>>();
    }

    #[test]
    fn cost_profile_is_memoized_per_plan() {
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("valid");
        let cache = KernelCache::new();
        let node = NodeModel::default();
        let a = cache.cost_profile(&plan, &node);
        let b = cache.cost_profile(&plan, &node);
        assert!(Arc::ptr_eq(&a.data, &b.data), "probe computed once");
        // A different estimator configuration gets its own probe.
        let other = SpectralPlan::new(PsaConfig {
            window_duration: 100.0,
            ..PsaConfig::conventional()
        })
        .expect("valid");
        let c = cache.cost_profile(&other, &node);
        assert!(!Arc::ptr_eq(&a.data, &c.data));
        assert!((a.hop_s() - 60.0).abs() < 1e-12);
        assert!((c.hop_s() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn resampled_exact_fast_path_undercuts_pruned_kernels() {
        // The honest cost landscape of the paper configuration: the
        // streaming engine's half-length exact fast path does fewer ops
        // per window than any full-pair pruned wavelet kernel — quality
        // scaling buys no operations there, which is exactly why budget
        // candidates ladder over DVFS points first (see `ladder`).
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("valid");
        let cache = KernelCache::new();
        let profile = cache.cost_profile(&plan, &NodeModel::default());
        let exact = cache.backend(&plan).expect("exact");
        let exact_spec = plan.base_spec();
        let exact_ops = profile.predict(exact_spec, exact.as_ref());

        let pruned_choice = choice(ApproximationMode::BandDropSet3, PruningPolicy::Static);
        let pruned_spec = plan.spec_for_choice(&pruned_choice);
        let pruned = cache
            .backend_for_choice(&plan, &pruned_choice)
            .expect("pruned");
        let pruned_ops = profile.predict(pruned_spec, pruned.as_ref());
        assert!(
            exact_ops.arithmetic() < pruned_ops.arithmetic(),
            "resampled fast path: exact {} must undercut pruned {}",
            exact_ops.arithmetic(),
            pruned_ops.arithmetic()
        );
        // Second prediction is a memo hit returning the same tally.
        assert_eq!(pruned_ops, profile.predict(pruned_spec, pruned.as_ref()));
        // The probe the profile ran spans one 2-minute window.
        assert!(
            probe_window(120.0).0.len() > 100,
            "2-minute probe at ~70 bpm"
        );
        assert!(profile.data.probe.variance() > 0.0);
        assert!((profile.hop_s() - 120.0 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn extirpolated_pruning_genuinely_undercuts_exact() {
        // Without the resampled fast path both exact and pruned kernels
        // run the full packed pair, and pruning wins — the operating
        // *choice* becomes a real budget lever on this configuration.
        let plan = SpectralPlan::new(PsaConfig {
            mesh: MeshStrategy::Extirpolate { order: 4 },
            window: Window::Hann,
            ..PsaConfig::conventional()
        })
        .expect("valid");
        let cache = KernelCache::new();
        let profile = cache.cost_profile(&plan, &NodeModel::default());
        let exact = cache.backend(&plan).expect("exact");
        let exact_spec = plan.base_spec();
        let exact_ops = profile.predict(exact_spec, exact.as_ref());

        let pruned_choice = choice(ApproximationMode::BandDropSet3, PruningPolicy::Static);
        let pruned_spec = plan.spec_for_choice(&pruned_choice);
        let pruned = cache
            .backend_for_choice(&plan, &pruned_choice)
            .expect("pruned");
        let pruned_ops = profile.predict(pruned_spec, pruned.as_ref());
        assert!(
            pruned_ops.arithmetic() < exact_ops.arithmetic(),
            "full-pair regime: pruned {} must undercut exact {}",
            pruned_ops.arithmetic(),
            exact_ops.arithmetic()
        );
    }

    #[test]
    fn ladder_spans_descending_energies_at_equal_quality() {
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("valid");
        let cache = KernelCache::new();
        let profile = cache.cost_profile(&plan, &NodeModel::default());
        let exact = cache.backend(&plan).expect("exact");
        let rungs = profile.ladder(None, plan.base_spec(), exact.as_ref());
        assert!(rungs.len() >= 5, "ladder has real dynamic range");
        assert!(rungs
            .windows(2)
            .all(|w| w[0].predicted_energy_j > w[1].predicted_energy_j));
        assert!(rungs
            .windows(2)
            .all(|w| w[0].opp.voltage > w[1].opp.voltage));
        assert!(rungs.iter().all(|c| c.expected_error_pct == 0.0));
        // Leakage dominates per-window energy, so the rail swing is the
        // real lever: ≥ 4× between nominal and the floor.
        let first = rungs.first().expect("rungs").predicted_energy_j;
        let last = rungs.last().expect("rungs").predicted_energy_j;
        assert!(first / last > 4.0, "{first} vs {last}");
        // Every rung still meets the real-time deadline.
        let ops = profile.predict(plan.base_spec(), exact.as_ref());
        for rung in &rungs {
            let busy = profile.cycles(&ops) as f64 / rung.opp.frequency;
            assert!(busy <= profile.hop_s());
        }
    }

    #[test]
    fn aggregate_energy_matches_the_node_model() {
        let plan = SpectralPlan::new(PsaConfig::conventional()).expect("valid");
        let cache = KernelCache::new();
        let node = NodeModel::default();
        let profile = cache.cost_profile(&plan, &node);
        let ops = OpCount {
            add: 100_000,
            mul: 40_000,
            load: 20_000,
            store: 10_000,
            ..OpCount::default()
        };
        let windows = 7u64;
        let hop = 120.0 * 0.5;
        let expect = node
            .energy
            .energy(&ops, &node.cost, &node.dvfs.nominal(), windows as f64 * hop)
            .total();
        assert_eq!(profile.energy(&ops, windows).to_bits(), expect.to_bits());
        assert_eq!(profile.cycles(&ops), node.cost.cycles(&ops));
    }
}
