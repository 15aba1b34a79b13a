//! Job execution: the cold (full-pipeline) and hit (reverse-only) paths.
//!
//! [`resolve`] canonicalizes a wire-level [`JobRequest`] into a
//! [`ResolvedJob`] — the deck is parsed and re-serialized through
//! [`write_netlist`] so the cache key addresses deck *content*, not
//! spelling. [`run_cold`] is [`masc_adjoint::run_adjoint`]'s own
//! forward + reverse body ([`run_recorded`]) over a capturing
//! [`CompressedStore`], which compresses on the stepping thread like
//! every other driver and hands the two sealed tensors back for caching
//! (DESIGN.md §3.8). [`run_hit`] skips the forward pass entirely: the
//! cached tensors replay newest-first through
//! [`BackwardJacobians::from_tensors`] into the same
//! [`adjoint_sensitivities`] loop, and the objective values come from the
//! cached trajectory, so its [`TranStats`] stay at zero steps — the
//! telemetry proof that the transient never ran.
//!
//! Both paths drive the reverse arithmetic identically (same canonical
//! deck, same fresh per-job cursor workspace, bit-identical decoded
//! matrices), which is what makes hit results bit-identical to the cold
//! run that populated the entry.

use crate::cache::{entry_key, job_fingerprint, CacheEntry};
use crate::protocol::{JobRequest, ObjectiveSpec, ParamSelector};
use crate::ServeError;
use masc_adjoint::lanes::lock_ignoring_poison;
use masc_adjoint::store::{StoreError, TensorLayout};
use masc_adjoint::{
    adjoint_sensitivities, check_objective_steps, run_recorded, AdjointError, BackwardJacobians,
    CompressedStore, ForwardRecord, Objective, StoreMetrics,
};
use masc_circuit::netlist::write_netlist;
use masc_circuit::parser::parse_netlist;
use masc_circuit::transient::{TranOptions, TranStats};
use masc_circuit::{Circuit, ParamRef, System};
use masc_compress::MascConfig;

/// A job after deck canonicalization and name resolution.
#[derive(Debug, Clone)]
pub struct ResolvedJob {
    /// Content-addressed cache key (FNV-1a of `fingerprint`).
    pub key: u64,
    /// The full identity string the key hashes
    /// ([`job_fingerprint`]) — compared against a cached entry's
    /// embedded fingerprint on every hit to rule out key collisions.
    pub fingerprint: String,
    /// The canonical (re-serialized) deck text.
    pub canonical_deck: String,
    /// Transient options from the deck's `.tran` card.
    pub tran: TranOptions,
    /// Objectives resolved to unknown indices.
    pub objectives: Vec<Objective>,
    /// Parameters resolved to device-local references.
    pub params: Vec<ParamRef>,
    /// Compression configuration (part of the key).
    pub masc: MascConfig,
}

/// The answer to one job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Whether the reverse pass replayed a cached tensor.
    pub hit: bool,
    /// One value per objective.
    pub objective_values: Vec<f64>,
    /// `sensitivities[objective][param]`.
    pub sensitivities: Vec<Vec<f64>>,
    /// Forward-transient telemetry: `steps == 0` on a cache hit (the
    /// forward pass never ran).
    pub tran_stats: TranStats,
    /// Store telemetry from the run (all zeros on a hit).
    pub store_metrics: StoreMetrics,
}

/// Resolves a wire request against its deck: canonicalize, look up
/// objective nodes and parameter paths, derive the cache key.
///
/// # Errors
///
/// Returns [`ServeError`] for unparsable decks, decks without `.tran`,
/// and unknown node/parameter names.
#[expect(
    clippy::disallowed_methods,
    reason = "the protocol caps objectives at `MAX_OBJECTIVES` and named parameters at `MAX_PARAMS`"
)]
pub fn resolve(req: &JobRequest, masc: &MascConfig) -> Result<ResolvedJob, ServeError> {
    let parsed = parse_netlist(&req.deck)?;
    let tran = parsed.tran.clone().ok_or(ServeError::NoTran)?;
    let canonical_deck = write_netlist(&parsed);
    let circuit = &parsed.circuit;

    let mut objectives = Vec::with_capacity(req.objectives.len());
    for spec in &req.objectives {
        let unknown = circuit
            .find_node(spec.node())
            .and_then(masc_circuit::Node::unknown)
            .ok_or_else(|| ServeError::UnknownNode(spec.node().to_string()))?;
        objectives.push(match *spec {
            ObjectiveSpec::FinalValue { .. } => Objective::FinalValue { unknown },
            ObjectiveSpec::AtStep { step, .. } => Objective::AtStep { unknown, step },
            ObjectiveSpec::Integral { .. } => Objective::Integral { unknown },
            ObjectiveSpec::IntegralSquared { .. } => Objective::IntegralSquared { unknown },
        });
    }

    let params = match &req.params {
        ParamSelector::All => circuit.params(),
        ParamSelector::Named(paths) => {
            let mut params = Vec::with_capacity(paths.len());
            for path in paths {
                params.push(
                    circuit
                        .find_param(path)
                        .ok_or_else(|| ServeError::UnknownParam(path.clone()))?,
                );
            }
            params
        }
    };

    let fingerprint = job_fingerprint(&canonical_deck, &tran, masc);
    let key = entry_key(&canonical_deck, &tran, masc);
    Ok(ResolvedJob {
        key,
        fingerprint,
        canonical_deck,
        tran,
        objectives,
        params,
        masc: masc.clone(),
    })
}

fn elaborate_canonical(job: &ResolvedJob) -> Result<(Circuit, System), ServeError> {
    let parsed = parse_netlist(&job.canonical_deck)?;
    let mut circuit = parsed.circuit;
    let system = circuit.elaborate()?;
    Ok((circuit, system))
}

/// Runs the full pipeline for a cache miss: forward transient through a
/// capturing compressed store, reverse pass over its tensors, and the
/// cache entry to persist.
///
/// # Errors
///
/// Returns [`ServeError`] if any pipeline stage fails; on error no cache
/// entry is produced.
pub fn run_cold(job: &ResolvedJob) -> Result<(JobOutcome, CacheEntry), ServeError> {
    let (circuit, mut system) = elaborate_canonical(job)?;
    let layout = TensorLayout::of(&system);
    let mut capture = CompressedStore::new(
        layout.g_pattern.clone(),
        layout.c_pattern.clone(),
        job.masc.clone(),
    );
    let slot = capture.capture();
    let record = ForwardRecord::with_store(layout, Box::new(capture));
    let (run, meta) = run_recorded(
        &circuit,
        &mut system,
        &job.tran,
        record,
        &job.objectives,
        &job.params,
    )?;

    let tensors = lock_ignoring_poison(&slot).take();
    let Some((g, c)) = tensors else {
        // The capturing store's finish always fills the slot; an empty slot
        // means the store was never finished (unreachable in this flow).
        return Err(ServeError::Store(StoreError::TensorTruncated { step: 0 }));
    };
    let outcome = JobOutcome {
        hit: false,
        objective_values: run.objective_values,
        sensitivities: run.sensitivities.values,
        tran_stats: run.tran_stats,
        store_metrics: run.store_metrics,
    };
    let entry = CacheEntry {
        fingerprint: job.fingerprint.clone(),
        meta,
        g,
        c,
    };
    Ok((outcome, entry))
}

/// Replays a cached entry: validates it against the job, then runs
/// [`adjoint_sensitivities`] over the cached tensors, with objective values
/// read off the cached trajectory. The forward transient never runs — the
/// returned [`TranStats`] are all zero.
///
/// # Errors
///
/// Returns a [cache-fault](ServeError::is_cache_fault) error when the
/// entry does not decode or does not match the job's circuit structure
/// (the caller discards the entry and re-runs cold), or an ordinary error
/// if the reverse arithmetic itself fails.
pub fn run_hit(job: &ResolvedJob, entry: &CacheEntry) -> Result<JobOutcome, ServeError> {
    // Hash-collision defense: the entry must carry this exact job's
    // identity, element values included — the structural checks below
    // cannot distinguish same-topology decks with different values.
    if entry.fingerprint != job.fingerprint {
        return Err(ServeError::CacheMismatch);
    }
    let (circuit, mut system) = elaborate_canonical(job)?;
    // Stale-entry defense: the cached tensors must also match the job's
    // exact sparsity structure and trajectory shape.
    if *entry.g.pattern() != system.g_pattern || *entry.c.pattern() != system.c_pattern {
        return Err(ServeError::CacheMismatch);
    }
    let n_times = entry.meta.times.len();
    if n_times == 0
        || entry.meta.hs.len() != n_times
        || entry.meta.states.len() != n_times
        || entry.g.len() != n_times
        || entry.c.len() != n_times
        || entry.meta.states.iter().any(|row| row.len() != system.n)
    {
        return Err(ServeError::CacheMismatch);
    }
    check_objective_steps(&job.objectives, n_times)?;

    let objective_values: Vec<f64> = job
        .objectives
        .iter()
        .map(|o| o.value(&entry.meta.states, &entry.meta.hs))
        .collect();

    let result = adjoint_sensitivities(
        &circuit,
        &mut system,
        &entry.meta,
        &mut BackwardJacobians::from_tensors(entry.g.clone(), entry.c.clone()),
        &job.objectives,
        &job.params,
    )
    .map_err(|e| match e {
        // A tensor that fails to replay indicts the entry, not the job.
        AdjointError::Store(StoreError::Compress(e)) => ServeError::Compress(e),
        AdjointError::Store(_) => ServeError::CacheMismatch,
        e => e.into(),
    })?;
    Ok(JobOutcome {
        hit: true,
        objective_values,
        sensitivities: result.values,
        // Zero steps / zero Newton iterations: the telemetry proof that
        // the hit path skipped the forward pass entirely.
        tran_stats: TranStats::default(),
        store_metrics: StoreMetrics::default(),
    })
}
