//! The workloads. Each does its own set-up (dataset, pre-training,
//! checkpoint), prunes the pre-trained model, and serves the dense and
//! pruned models through `SharedNetwork::classify`; they differ in which
//! stage carries the time. See `README.md` for why each exists.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::time::Instant;

use hs_core::{
    EngineObserver, EpisodeTrace, EvalExecutor, HeadStartError, LayerPruner, PruningUnit,
    RecoveryEvent, SerialExecutor,
};
use hs_data::{cached, Dataset, DatasetSpec};
use hs_gpusim::{devices, estimate};
use hs_nn::accounting::analyze;
use hs_nn::compact::{compact, CompactNetwork};
use hs_nn::infer::SharedNetwork;
use hs_nn::surgery::{conv_sites, prune_feature_maps};
use hs_nn::{checkpoint, train, Network};
use hs_pruning::{L1Norm, PruningCriterion, ScoreContext};
use hs_runner::{Budget, Method, ModelChoice, ModelKind, Prepared};
use hs_tensor::{Rng, Tensor};

use crate::calib::{Calibration, REFERENCE_NOMINAL_S};
use crate::json::Json;
use crate::stats::{median, tail};
use crate::trace::{Counters, Tracer, KERNEL_METRICS, PHASES};

/// Errors surface as their message; every one fails the run.
pub type Res<T> = Result<T, Box<dyn Error>>;

/// Target speedup: HeadStart's `sp`, and `1/keep` for the share of maps
/// `infer` keeps per conv site.
const SP: f32 = 2.0;
/// Images the baseline criteria score on (`SCORING_IMAGES` in
/// `hs_pruning::driver`).
const SCORING_IMAGES: usize = 64;
/// The batch `train::evaluate` uses, and the `infer` batch size.
const BATCH: usize = 64;
/// Batch-1 calls per model per serving round.
const B1_PER_ROUND: usize = 32;
/// Seconds between reference timings inside a HeadStart prune
/// repetition (see `calib.rs`).
const PROBE_INTERVAL_S: f64 = 0.25;
/// Largest element-wise logit difference the compaction check accepts
/// (the tolerance of `tests/compact_parity.rs`).
const PARITY_TOL: f32 = 1e-6;
/// Largest batch-64 against batch-1 logit difference, relative to the
/// largest batch-1 logit magnitude (at least 1). Float reordering only:
/// the classifier GEMM takes the small path at batch 1 and the blocked
/// path at batch 64, which moves dense vgg11 logits by up to ~8e-6, past
/// [`PARITY_TOL`]; a batching bug moves them by whole units.
const BATCH_TOL_REL: f32 = 1e-5;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HeadStart per-layer pruning of vgg11 at sp = 2 (`hs_run --quick`).
    PruneHeadStart,
    /// Closed-loop single-caller inference, dense against pruned.
    Infer,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::PruneHeadStart, Workload::Infer];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PruneHeadStart => "prune-headstart",
            Workload::Infer => "infer",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Share of the measured window the prune stage may take; serving
    /// gets the rest.
    fn prune_share(self) -> f64 {
        match self {
            Workload::PruneHeadStart => 0.5,
            Workload::Infer => 0.15,
        }
    }

    /// Fewest prune repetitions a run makes.
    fn min_prune_reps(self) -> usize {
        match self {
            Workload::PruneHeadStart => 2,
            Workload::Infer => 10,
        }
    }
}

/// How much work one run does.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Pre-training, fine-tuning and RL budget.
    pub budget: Budget,
    /// Dataset shape (its seed comes from the run's seed).
    pub data: DatasetSpec,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// The measured window, in seconds.
    pub seconds: f64,
    /// Fewest seconds of serving, even when pruning overran its share.
    pub min_serve_s: f64,
}

impl Plan {
    /// The benchmark proper: `hs_run --quick` budgets on the CIFAR-like
    /// dataset.
    pub fn full(seconds: f64) -> Plan {
        Plan {
            budget: Budget::quick(),
            data: DatasetSpec::cifar_like(),
            setup_reps: 3,
            seconds,
            min_serve_s: 4.0,
        }
    }

    /// A seconds-long pass through every stage, for tests.
    #[cfg(test)]
    pub fn smoke() -> Plan {
        Plan {
            budget: Budget::smoke(),
            data: DatasetSpec::cifar_like()
                .classes(4)
                .train_per_class(8)
                .test_per_class(BATCH / 4)
                .image_size(8),
            setup_reps: 2,
            seconds: 0.0,
            min_serve_s: 0.05,
        }
    }
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// Check name.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: set-ups, prune runs and forward calls.
    pub attempted: u64,
    /// Operations that returned an error, plus failed checks.
    pub failed: u64,
    /// Every output check.
    pub checks: Vec<Check>,
    /// `(name, value)` of every metric this mode reports.
    pub metrics: Vec<(String, f64)>,
    /// Raw samples behind the metrics, for the detail line.
    pub samples: Vec<(&'static str, Json)>,
}

impl Outcome {
    fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check { name, ok, detail });
    }

    fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }
}

/// splitmix64 over `seed` and a purpose tag: independent streams for
/// the dataset, the model and the prune stage.
fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The run's scratch directory under the checkout, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Res<WorkDir> {
        let dir = PathBuf::from(".bench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only empty: another run may be using a sibling directory.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// One set-up: a fresh dataset, vgg11 (width 0.25) pre-trained on it,
/// the checkpoint written, then restored into a [`Prepared`] the way
/// `hs_runner::prepare` restores one.
fn setup(seed: u64, rep: u64, plan: &Plan, dir: &Path, t: &mut Tracer) -> Res<Prepared> {
    // A distinct dataset seed per repetition, so every set-up builds.
    let spec = plan.data.clone().with_seed(derive(seed, 16 * rep + 1));
    let ds = t.span("data.build", |_| cached(&spec))?;
    let mut rng = Rng::seed_from(derive(seed, 16 * rep + 2));
    let mut net = ModelChoice::new(ModelKind::Vgg11, 0.25).build(&ds, &mut rng)?;
    t.span("runner.pretrain", |_| {
        hs_runner::pretrain(&mut net, &ds, plan.budget.pretrain_epochs, &mut rng)
    })?;
    let path = dir.join(format!("pretrained-{rep}.hsck"));
    t.span("nn.checkpoint_save", |_| checkpoint::save(&net, &path))?;
    let mut net = checkpoint::load(&path)?;
    let original_accuracy = train::evaluate(&mut net, &ds.test_images, &ds.test_labels, BATCH)?;
    let original_cost = analyze(&net, ds.channels(), ds.image_size())?;
    Ok(Prepared {
        ds,
        net,
        original_accuracy,
        original_cost,
        budget: plan.budget,
        stages: Vec::new(),
    })
}

/// One prune repetition's result.
struct PruneRep {
    secs: f64,
    /// `secs` on the baseline host's scale.
    scaled: f64,
    traced: bool,
    /// Test accuracy of the pruned model.
    accuracy: f32,
    /// Maps kept per conv site.
    keep: Vec<usize>,
    /// MACs per sample after pruning.
    flops: u64,
}

/// The compacted model both workloads serve, and the masked-dense model
/// it came from.
type Models = (Network, Network);

impl PruneRep {
    fn fingerprint(&self) -> (u32, &[usize], u64) {
        (self.accuracy.to_bits(), &self.keep, self.flops)
    }
}

/// Counts what the episode engine reports to its observer.
#[derive(Debug, Default)]
struct CoreCounts {
    units: u64,
    converged: u64,
    episodes: u64,
    candidates: u64,
    recoveries: u64,
}

impl EngineObserver for CoreCounts {
    fn on_episode(&mut self, _event: &hs_core::engine::EpisodeEvent<'_>) {
        self.episodes += 1;
    }

    fn on_recovery(&mut self, _unit_kind: &'static str, _event: &RecoveryEvent) {
        self.recoveries += 1;
    }

    fn on_converged(&mut self, _unit_kind: &'static str, trace: &EpisodeTrace) {
        self.units += 1;
        self.converged += u64::from(trace.converged());
    }
}

/// The serial executor, with a `core.eval` span around every candidate
/// batch.
struct TimedExecutor<'a> {
    tracer: &'a mut Tracer,
    candidates: u64,
}

impl EvalExecutor for TimedExecutor<'_> {
    fn eval_batch(
        &mut self,
        unit: &mut dyn PruningUnit,
        net: &mut Network,
        actions: &[Vec<bool>],
    ) -> Result<Vec<f32>, HeadStartError> {
        self.candidates += actions.len() as u64;
        self.tracer.span("core.eval", |_| {
            SerialExecutor.eval_batch(unit, net, actions)
        })
    }
}

const HEADSTART: Method = Method::HeadStartLayers { sp: SP };

/// The first [`SCORING_IMAGES`] training images and labels.
fn scoring_set(ds: &Dataset) -> Res<(Tensor, Vec<usize>)> {
    let n = SCORING_IMAGES.min(ds.train_labels.len());
    let idx: Vec<usize> = (0..n).collect();
    Ok((
        ds.train_images.index_select(0, &idx)?,
        ds.train_labels[..n].to_vec(),
    ))
}

/// The serial executor, timing the host-speed reference between
/// candidate batches every [`PROBE_INTERVAL_S`]. The reference touches
/// nothing of the program's, so the outcome is the serial executor's.
struct ProbingExecutor<'a> {
    cal: &'a mut Calibration,
}

impl EvalExecutor for ProbingExecutor<'_> {
    fn eval_batch(
        &mut self,
        unit: &mut dyn PruningUnit,
        net: &mut Network,
        actions: &[Vec<bool>],
    ) -> Result<Vec<f32>, HeadStartError> {
        self.cal.probe_every(PROBE_INTERVAL_S);
        SerialExecutor.eval_batch(unit, net, actions)
    }
}

/// The program's prune stage, as `hs_run --quick` runs it with
/// `--workers 1`, with the reference timed between candidate batches.
fn prune_untraced(p: &Prepared, seed: u64, cal: &mut Calibration) -> Res<PruneRep> {
    let start = Instant::now();
    let run = p.run_method_with(&HEADSTART, seed, &mut ProbingExecutor { cal })?;
    Ok(PruneRep {
        secs: start.elapsed().as_secs_f64(),
        scaled: 0.0,
        traced: false,
        accuracy: run.final_accuracy,
        keep: run.traces.iter().map(|t| t.maps_after).collect(),
        flops: run.cost.total_flops,
    })
}

/// The same prune stage, composed from the crates' public calls with a
/// span around each: `HeadStartPruner::prune_model_executed` step by
/// step. The run's outcome must equal [`prune_untraced`]'s, which shows
/// this is the program's loop.
fn prune_traced(p: &Prepared, seed: u64, t: &mut Tracer, core: &mut CoreCounts) -> Res<PruneRep> {
    let start = Instant::now();
    let (net, accuracy, keep) = t.span("prune", |t| -> Res<(Network, f32, Vec<usize>)> {
        let ds = &*p.ds;
        let ft = p.finetune();
        let mut net = p.net.clone();
        let mut rng = Rng::seed_from(seed);
        let cfg = HEADSTART
            .headstart_config(&p.budget)
            .ok_or("HeadStart without an RL config")?;
        cfg.validate()?;
        let pruner = LayerPruner::new(cfg);
        let mut keep = Vec::new();
        for ordinal in 0..net.conv_indices().len() {
            let conv = net.conv_indices()[ordinal];
            let decision = t.span("core.search", |t| {
                let mut exec = TimedExecutor {
                    tracer: t,
                    candidates: 0,
                };
                let d = pruner.prune_executed(&mut net, ordinal, ds, &mut rng, core, &mut exec);
                core.candidates += exec.candidates;
                d
            })?;
            t.span("nn.surgery", |_| {
                prune_feature_maps(&mut net, conv, &decision.keep)
            })?;
            t.span("nn.evaluate", |_| {
                train::evaluate(&mut net, &ds.test_images, &ds.test_labels, BATCH)
            })?;
            t.span("pruning.finetune", |_| {
                ft.run(&mut net, &ds.train_images, &ds.train_labels, &mut rng)
            })?;
            t.span("nn.evaluate", |_| {
                train::evaluate(&mut net, &ds.test_images, &ds.test_labels, BATCH)
            })?;
            t.span("nn.analyze", |_| {
                analyze(&net, ds.channels(), ds.image_size())
            })?;
            keep.push(decision.keep.len());
        }
        let accuracy = t.span("nn.evaluate", |_| {
            train::evaluate(&mut net, &ds.test_images, &ds.test_labels, BATCH)
        })?;
        // The pruner's closing cost and the runner's, as the program does.
        for _ in 0..2 {
            t.span("nn.analyze", |_| {
                analyze(&net, ds.channels(), ds.image_size())
            })?;
        }
        Ok((net, accuracy, keep))
    })?;
    let flops = analyze(&net, p.ds.channels(), p.ds.image_size())?.total_flops;
    Ok(PruneRep {
        secs: start.elapsed().as_secs_f64(),
        scaled: 0.0,
        traced: true,
        accuracy,
        keep,
        flops,
    })
}

/// `infer`'s prune stage: mask every conv site to its `1/sp` highest-L1
/// maps (no search, no fine-tuning) and compact the result. Both
/// workloads serve this model: its shape is the same for every seed,
/// where HeadStart's keep counts are not.
fn prune_one_shot(p: &Prepared, seed: u64, t: &mut Tracer) -> Res<(PruneRep, Models)> {
    let start = Instant::now();
    let (masked, compacted) = t.span("prune", |t| -> Res<(Network, CompactNetwork)> {
        let ds = &*p.ds;
        let mut masked = p.net.clone();
        let mut rng = Rng::seed_from(seed);
        let mut l1 = L1Norm::new();
        let (scoring_images, scoring_labels) = scoring_set(ds)?;
        for site in conv_sites(&masked) {
            let maps = masked.conv(site.conv)?.out_channels();
            let count = ((maps as f32 / SP).round() as usize).clamp(1, maps);
            let keep = t.span("pruning.score", |_| {
                let mut ctx = ScoreContext::new(
                    &mut masked,
                    site,
                    &scoring_images,
                    &scoring_labels,
                    &mut rng,
                );
                l1.keep_set(&mut ctx, count)
            })?;
            let mask = (0..maps)
                .map(|i| f32::from(u8::from(keep.binary_search(&i).is_ok())))
                .collect();
            masked.set_channel_mask(site.mask_node, Some(mask));
        }
        let compacted = t.span("nn.compact", |_| {
            compact(&masked, ds.channels(), ds.image_size())
        })?;
        Ok((masked, compacted))
    })?;
    let secs = start.elapsed().as_secs_f64();
    let mut net = compacted.net;
    let keep = conv_sites(&net)
        .iter()
        .map(|s| net.conv(s.conv).map(|c| c.out_channels()))
        .collect::<Result<Vec<_>, _>>()?;
    let accuracy = train::evaluate(&mut net, &p.ds.test_images, &p.ds.test_labels, BATCH)?;
    let rep = PruneRep {
        secs,
        scaled: 0.0,
        traced: t.enabled(),
        accuracy,
        keep,
        flops: compacted.report.flops_after,
    };
    Ok((rep, (net, masked)))
}

fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
    if a.shape() != b.shape() {
        return f32::INFINITY;
    }
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

/// Per-call seconds of the four serving measurements, raw and on the
/// baseline host's scale.
#[derive(Debug, Default)]
struct Serve {
    pruned_b1: Vec<f64>,
    dense_b1: Vec<f64>,
    pruned_b64: Vec<f64>,
    dense_b64: Vec<f64>,
    scaled: [Vec<f64>; 4],
    secs: f64,
}

/// Closed-loop, single-caller serving: each call starts when the last
/// returns. Rounds alternate the models so drift hits both alike, and the
/// reference is timed between rounds to scale each round's calls.
fn serve(
    dense: &SharedNetwork,
    pruned: &SharedNetwork,
    ds: &Dataset,
    seconds: f64,
    t: &mut Tracer,
    cal: &mut Calibration,
    out: &mut Outcome,
) -> Res<Serve> {
    let n = ds.test_labels.len();
    let singles: Vec<Tensor> = (0..n)
        .map(|i| ds.test_images.index_select(0, &[i]))
        .collect::<Result<_, _>>()?;
    let batches: Vec<Tensor> = (0..n / BATCH)
        .map(|b| {
            ds.test_images
                .index_select(0, &(b * BATCH..(b + 1) * BATCH).collect::<Vec<_>>())
        })
        .collect::<Result<_, _>>()?;
    if batches.is_empty() {
        return Err(format!("test split of {n} images holds no batch of {BATCH}").into());
    }
    // Warm both models on both shapes before timing.
    for model in [dense, pruned] {
        model.classify(&singles[0])?;
        model.classify(&batches[0])?;
    }
    let mut s = Serve::default();
    let mut cursor = 0usize;
    // Per round: when it ran, and where its calls start in each series.
    let mut rounds: Vec<(f64, f64, [usize; 4])> = Vec::new();
    let start = Instant::now();
    while s.pruned_b1.is_empty() || start.elapsed().as_secs_f64() < seconds {
        cal.probe();
        let from = [
            s.pruned_b1.len(),
            s.dense_b1.len(),
            s.pruned_b64.len(),
            s.dense_b64.len(),
        ];
        let t0 = cal.now();
        for (model, b1, b64) in [
            (pruned, &mut s.pruned_b1, &mut s.pruned_b64),
            (dense, &mut s.dense_b1, &mut s.dense_b64),
        ] {
            t.span("infer.b1", |_| {
                for i in 0..B1_PER_ROUND {
                    let x = &singles[(cursor + i) % n];
                    let call = Instant::now();
                    let ok = model.classify(x).is_ok_and(|c| c.len() == 1);
                    b1.push(call.elapsed().as_secs_f64());
                    out.attempted += 1;
                    out.failed += u64::from(!ok);
                }
            });
            t.span("infer.b64", |_| {
                for x in &batches {
                    let call = Instant::now();
                    let ok = model.classify(x).is_ok_and(|c| c.len() == BATCH);
                    b64.push(call.elapsed().as_secs_f64());
                    out.attempted += 1;
                    out.failed += u64::from(!ok);
                }
            });
        }
        cursor += B1_PER_ROUND;
        rounds.push((t0, cal.now(), from));
    }
    s.secs = start.elapsed().as_secs_f64();
    cal.probe();
    for (i, series) in [&s.pruned_b1, &s.dense_b1, &s.pruned_b64, &s.dense_b64]
        .into_iter()
        .enumerate()
    {
        for (r, &(t0, t1, from)) in rounds.iter().enumerate() {
            let to = rounds.get(r + 1).map_or(series.len(), |next| next.2[i]);
            let (raw, scaled) = cal.scaled(t0, t1);
            let k = scaled / raw;
            s.scaled[i].extend(series[from[i]..to].iter().map(|v| v * k));
        }
    }

    // Batching must not change an image's logits.
    for (label, model) in [("dense", dense), ("pruned", pruned)] {
        let whole = model.with(|net| net.forward(&batches[0], false))?;
        let mut worst = 0.0f32;
        let mut scale = 1.0f32;
        for (i, x) in singles.iter().take(BATCH).enumerate() {
            let one = model.with(|net| net.forward(x, false))?;
            let row = whole.index_select(0, &[i])?;
            worst = worst.max(max_abs_diff(&row, &one));
            scale = one.data().iter().fold(scale, |m, v| m.max(v.abs()));
        }
        let tol = BATCH_TOL_REL * scale;
        out.check(
            "b64_logits_match_b1",
            worst <= tol,
            format!("{label}: max |b64 - b1| = {worst:e} (tolerance {tol:e})"),
        );
    }
    Ok(s)
}

/// Runs `workload` once: set-ups, then the measured window of pruning
/// and serving. With `traced`, the prune repetitions alternate between
/// the program's own call and the spanned composition, and the per-layer
/// metrics are reported instead of the end-to-end ones.
pub fn run(workload: Workload, seed: u64, plan: &Plan, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(workload, seed, plan, traced, &mut out) {
        out.check("completed", false, e.to_string());
    }
    out
}

fn run_inner(
    workload: Workload,
    seed: u64,
    plan: &Plan,
    traced: bool,
    out: &mut Outcome,
) -> Res<()> {
    let dir = WorkDir::create()?;
    let mut tracer = Tracer::new(traced);
    let mut untraced = Tracer::new(false);
    let mut cal = Calibration::new();

    let mut setup_secs = Vec::new();
    let mut setup_spans = Vec::new();
    let mut prepared = None;
    for rep in 0..plan.setup_reps.max(1) {
        cal.probe();
        let t0 = cal.now();
        let start = Instant::now();
        out.attempted += 1;
        let p = tracer.span("setup", |t| setup(seed, rep as u64, plan, &dir.0, t))?;
        setup_secs.push(start.elapsed().as_secs_f64());
        setup_spans.push((t0, cal.now()));
        prepared.get_or_insert(p);
    }
    cal.probe();
    let setup_scaled: Vec<f64> = setup_spans
        .iter()
        .map(|&(t0, t1)| cal.scaled(t0, t1).1)
        .collect();
    let p = prepared.ok_or("no set-up ran")?;

    // Prune repetitions until the stage's share of the window is used.
    let prune_seed = derive(seed, 3);
    let mut core = CoreCounts::default();
    let mut reps: Vec<PruneRep> = Vec::new();
    let mut rep_spans = Vec::new();
    let mut models = None;
    if workload == Workload::Infer {
        // One untimed repetition first: the stage's first call pays for
        // lazily built state that later calls reuse.
        out.attempted += 1;
        prune_one_shot(&p, prune_seed, &mut untraced)?;
    }
    let window = Instant::now();
    let budget = plan.seconds * workload.prune_share();
    loop {
        // Traced runs alternate untraced and traced repetitions.
        let traced_rep = traced && !reps.len().is_multiple_of(2);
        out.attempted += 1;
        cal.probe();
        let t0 = cal.now();
        let rep = match (workload, traced_rep) {
            (Workload::Infer, traced_rep) => {
                let t = if traced_rep {
                    &mut tracer
                } else {
                    &mut untraced
                };
                let (rep, latest) = prune_one_shot(&p, prune_seed, t)?;
                models = Some(latest);
                rep
            }
            (_, true) => prune_traced(&p, prune_seed, &mut tracer, &mut core)?,
            (_, false) => prune_untraced(&p, prune_seed, &mut cal)?,
        };
        rep_spans.push((t0, cal.now()));
        reps.push(rep);
        let elapsed = window.elapsed().as_secs_f64();
        let next = elapsed + elapsed / reps.len() as f64;
        let pairs_done = !traced || reps.len().is_multiple_of(2);
        if reps.len() >= workload.min_prune_reps() && pairs_done && next > budget {
            break;
        }
    }
    cal.probe();
    for (rep, &(t0, t1)) in reps.iter_mut().zip(&rep_spans) {
        // Leave out the reference timings taken inside the repetition.
        let (raw, scaled) = cal.scaled(t0, t1);
        rep.secs -= (t1 - t0) - raw;
        rep.scaled = rep.secs * scaled / raw;
    }
    let prune_elapsed = window.elapsed().as_secs_f64();

    // Output checks on the prune stage.
    let first = &reps[0];
    let same = |r: &PruneRep| r.fingerprint() == first.fingerprint();
    let plain: Vec<&PruneRep> = reps.iter().filter(|r| !r.traced).collect();
    out.check(
        "seeded_reps_identical",
        plain.iter().all(|r| same(r)),
        format!(
            "{} untraced reps: accuracy {:.4}, keep {:?}, flops {}",
            plain.len(),
            first.accuracy,
            first.keep,
            first.flops
        ),
    );
    if traced {
        out.check(
            "traced_equals_untraced",
            reps.iter().filter(|r| r.traced).all(same),
            format!(
                "{} traced reps against the untraced outcome",
                reps.len() - plain.len()
            ),
        );
    }
    let original_flops = p.original_cost.total_flops;
    let worst_speedup = reps
        .iter()
        .map(|r| original_flops as f64 / r.flops.max(1) as f64)
        .fold(f64::INFINITY, f64::min);
    out.check(
        "flop_speedup_at_least_sp",
        worst_speedup >= f64::from(SP),
        format!("lowest FLOP speedup {worst_speedup:.3} against sp {SP}"),
    );
    let last = &reps[reps.len() - 1];
    let (pruned_net, mut masked) = match models {
        Some(models) => models,
        None => prune_one_shot(&p, prune_seed, &mut untraced)?.1,
    };
    let x =
        p.ds.test_images
            .index_select(0, &(0..BATCH).collect::<Vec<_>>())?;
    let want = masked.forward(&x, false)?;
    let got = pruned_net.clone().forward(&x, false)?;
    let diff = max_abs_diff(&want, &got);
    out.check(
        "compact_matches_masked",
        diff <= PARITY_TOL,
        format!("max |masked - compacted| = {diff:e} (tolerance {PARITY_TOL:e})"),
    );

    // Serving: the pre-trained dense model against the pruned one.
    let dense = SharedNetwork::new(p.net.clone());
    let pruned = SharedNetwork::new(pruned_net.clone());
    let serve_secs = (plan.seconds - prune_elapsed).max(plan.min_serve_s);
    let s = serve(
        &dense,
        &pruned,
        &p.ds,
        serve_secs,
        &mut tracer,
        &mut cal,
        out,
    )?;

    let secs_of = |traced_rep: bool| -> Vec<f64> {
        reps.iter()
            .filter(|r| r.traced == traced_rep)
            .map(|r| r.secs)
            .collect()
    };
    let untraced_secs = secs_of(false);
    let traced_secs = secs_of(true);
    let untraced_scaled: Vec<f64> = reps
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.scaled)
        .collect();
    let p50_ms = |v: &[f64]| 1e3 * median(v);
    let per_s = |v: &[f64]| BATCH as f64 / median(v);
    let reference_s = cal.timings();
    // The end-to-end values before and after scaling to the baseline host.
    let end_to_end = |setup: &[f64], prune: &[f64], serve: [&Vec<f64>; 4]| {
        vec![
            ("setup_s", median(setup)),
            ("peak_rss_mb", crate::host::peak_rss_mb()),
            ("prune_s", median(prune)),
            ("pruned_b1_p50_ms", p50_ms(serve[0])),
            ("dense_b1_p50_ms", p50_ms(serve[1])),
            ("pruned_b64_imgs_per_s", per_s(serve[2])),
            ("dense_b64_imgs_per_s", per_s(serve[3])),
        ]
    };
    let raw = end_to_end(
        &setup_secs,
        &untraced_secs,
        [&s.pruned_b1, &s.dense_b1, &s.pruned_b64, &s.dense_b64],
    );
    let scaled = end_to_end(
        &setup_scaled,
        &untraced_scaled,
        [&s.scaled[0], &s.scaled[1], &s.scaled[2], &s.scaled[3]],
    );
    let as_obj = |values: &[(&str, f64)]| {
        Json::Obj(
            values
                .iter()
                .map(|&(n, v)| (n.to_string(), Json::Num(v)))
                .collect(),
        )
    };
    out.samples = vec![
        ("unscaled", as_obj(&raw)),
        (
            "reference",
            Json::obj([
                ("timings", Json::Num(reference_s.len() as f64)),
                ("median_s", Json::Num(median(&reference_s))),
                ("nominal_s", Json::Num(REFERENCE_NOMINAL_S)),
            ]),
        ),
        (
            "setup_s",
            Json::Arr(setup_secs.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "prune_s",
            Json::Arr(untraced_secs.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "traced_prune_s",
            Json::Arr(traced_secs.iter().map(|&v| Json::Num(v)).collect()),
        ),
        (
            "final_accuracy_pct",
            Json::Num(100.0 * f64::from(last.accuracy)),
        ),
        (
            "keep",
            Json::Arr(last.keep.iter().map(|&k| Json::Num(k as f64)).collect()),
        ),
        ("serve_s", Json::Num(s.secs)),
    ];

    if !traced {
        for (name, value) in scaled {
            out.metric(name, value);
        }
        return Ok(());
    }

    // Per-layer metrics from the traced run.
    let found: Vec<String> = hs_telemetry::metrics::snapshot()
        .iter()
        .map(|m| m.name().to_string())
        .collect();
    let missing: Vec<&str> = KERNEL_METRICS
        .into_iter()
        .filter(|m| !found.iter().any(|f| f == m))
        .collect();
    out.check(
        "kernel_metrics_registered",
        missing.is_empty(),
        format!("missing from the metrics registry: {missing:?}"),
    );
    let traced_reps = traced_secs.len().max(1) as f64;
    let setups = setup_secs.len() as f64;
    let totals = tracer.totals();
    let total = |name: &str| totals.get(name).cloned().unwrap_or_default();
    let per_rep = |name: &str| total(name).secs / traced_reps;
    let per_setup = |name: &str| total(name).secs / setups;

    out.metric("data.build_s", per_setup("data.build"));
    out.metric("runner.pretrain_s", per_setup("runner.pretrain"));
    out.metric(
        "runner.final_accuracy_pct",
        100.0 * f64::from(last.accuracy),
    );
    out.metric("nn.checkpoint_save_s", per_setup("nn.checkpoint_save"));
    for name in ["nn.compact", "nn.surgery", "nn.evaluate", "nn.analyze"] {
        out.metric(format!("{name}_s"), per_rep(name));
    }
    let pruned_p50 = median(&s.pruned_b1);
    let dense_p50 = median(&s.dense_b1);
    for (label, samples, b64) in [
        ("pruned", &s.pruned_b1, &s.pruned_b64),
        ("dense", &s.dense_b1, &s.dense_b64),
    ] {
        let t = tail(samples);
        out.metric(
            format!("nn.{label}_b1_tail_ms"),
            t.map_or(0.0, |t| 1e3 * t.value),
        );
        out.metric(format!("nn.{label}_b1_tail_pct"), t.map_or(0.0, |t| t.pct));
        out.metric(format!("nn.{label}_b1_samples"), samples.len() as f64);
        let b1_per_s = 1.0 / median(samples);
        out.metric(format!("nn.{label}_batch_gain_x"), per_s(b64) / b1_per_s);
    }
    let pruned_cost = analyze(&pruned_net, p.ds.channels(), p.ds.image_size())?;
    out.metric(
        "nn.flop_speedup_x",
        original_flops as f64 / pruned_cost.total_flops.max(1) as f64,
    );
    let measured = dense_p50 / pruned_p50;
    out.metric("nn.pruned_speedup_x", measured);

    let search = total("core.search");
    let search_s = search.secs / traced_reps;
    out.metric("core.search_s", search_s);
    out.metric("core.eval_s", per_rep("core.eval"));
    out.metric("core.policy_s", search.self_secs / traced_reps);
    out.metric("core.episodes", core.episodes as f64 / traced_reps);
    out.metric("core.candidates", core.candidates as f64 / traced_reps);
    out.metric(
        "core.episodes_per_s",
        if search_s > 0.0 {
            core.episodes as f64 / traced_reps / search_s
        } else {
            0.0
        },
    );
    out.metric(
        "core.converged_units",
        if core.units > 0 {
            core.converged as f64 / core.units as f64
        } else {
            0.0
        },
    );
    out.metric(
        "core.guard_recoveries",
        core.recoveries as f64 / traced_reps,
    );
    out.metric("pruning.finetune_s", per_rep("pruning.finetune"));
    out.metric("pruning.score_s", per_rep("pruning.score"));

    let device = devices::xeon_e2620();
    let channels = p.ds.channels();
    let size = p.ds.image_size();
    let predicted = estimate(&device, &p.net, channels, size)?.total_seconds
        / estimate(&device, &pruned_net, channels, size)?.total_seconds;
    out.metric("gpusim.pred_speedup_x", predicted);
    out.metric(
        "gpusim.pred_error_pct",
        100.0 * (predicted - measured).abs() / measured,
    );

    let untraced_s = median(&untraced_secs);
    let traced_s = median(&traced_secs);
    let (root_secs, covered) = tracer.coverage("prune");
    let coverage_pct = if root_secs > 0.0 {
        100.0 * covered / root_secs
    } else {
        0.0
    };
    if workload == Workload::PruneHeadStart {
        out.check(
            "span_coverage",
            coverage_pct >= 90.0,
            format!(
                "child spans cover {coverage_pct:.2}% of the traced prune stage (at least 90%)"
            ),
        );
    }
    out.metric("bench.untraced_prune_s", untraced_s);
    out.metric("bench.traced_prune_s", traced_s);
    out.metric(
        "bench.trace_overhead_pct",
        100.0 * (traced_s / untraced_s - 1.0),
    );
    out.metric("bench.span_coverage_pct", coverage_pct);
    out.metric("bench.setup_reps", setups);
    out.metric("bench.prune_reps", reps.len() as f64);
    out.metric("bench.b64_calls", s.pruned_b64.len() as f64);
    out.metric("bench.serve_s", s.secs);
    out.metric("bench.reference_ms", 1e3 * median(&reference_s));

    // Kernel counters per phase: per traced prune repetition for the
    // prune phases, per classify call for the serving phases.
    for (span, phase) in PHASES {
        let phase_total = total(span);
        let per = match span {
            "infer.b1" => (s.pruned_b1.len() + s.dense_b1.len()) as f64,
            "infer.b64" => (s.pruned_b64.len() + s.dense_b64.len()) as f64,
            _ => traced_reps,
        };
        let c: Counters = phase_total.counters;
        let gflop = c.gemm_flops as f64 / 1e9;
        let timed_rate = if c.gemm_timed_secs > 0.0 {
            gflop / c.gemm_timed_secs
        } else {
            0.0
        };
        for (what, value) in [
            ("gemm_calls", c.gemm_calls as f64 / per),
            ("gemm_gflop", gflop / per),
            ("gemm_timed_s", c.gemm_timed_secs / per),
            (
                "gemm_untimed_calls",
                (c.gemm_calls - c.gemm_timed_calls) as f64 / per,
            ),
            ("gemm_timed_gflops", timed_rate),
            ("im2col_calls", c.im2col_calls as f64 / per),
            ("im2col_mb", c.im2col_bytes as f64 / 1e6 / per),
            ("col2im_calls", c.col2im_calls as f64 / per),
            ("pool_tasks", c.pool_tasks as f64 / per),
            ("scratch_highwater_mb", c.scratch_highwater / 1e6),
        ] {
            out.metric(format!("tensor.{phase}.{what}"), value);
        }
    }
    Ok(())
}
